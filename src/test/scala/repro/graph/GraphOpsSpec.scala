package repro.graph

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestGraphs}

class GraphOpsSpec extends SparkSpec {
  import spark.implicits._

  private def rawDf(rows: (Long, Long)*) = rows.toDF("src", "dst")

  test("canonicalize drops self-loops") {
    val out = GraphOps.canonicalize(rawDf((1L, 1L), (1L, 2L))).collect()
    assert(out.map(r => (r.getLong(0), r.getLong(1))).toSet == Set((1L, 2L)))
  }

  test("canonicalize orients src < dst") {
    val out = GraphOps.canonicalize(rawDf((5L, 2L), (2L, 7L)))
    assert(out.collect().forall(r => r.getLong(0) < r.getLong(1)))
  }

  test("canonicalize merges duplicate and reversed edges") {
    val out = GraphOps.canonicalize(rawDf((1L, 2L), (2L, 1L), (1L, 2L), (3L, 4L)))
    assert(out.count() == 2)
  }

  test("symmetrize emits both orientations") {
    val sym = GraphOps.symmetrize(rawDf((1L, 2L), (2L, 3L))).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(sym == Set((1L, 2L), (2L, 1L), (2L, 3L), (3L, 2L)))
  }

  test("degrees match a local count and cover all endpoints") {
    val g = TestGraphs.connectedRandom(40, 70, seed = 11)
    val deg = GraphOps.degrees(TestGraphs.edgesDf(spark, g)).collect()
      .map(r => r.getLong(0).toInt -> r.getLong(1)).toMap
    assert(deg.size == g.numNodes)
    (0 until g.numNodes).foreach(u => assert(deg(u) == g.degree(u).toLong, s"node $u"))
  }

  test("degrees agree with the DuckDB oracle") {
    val g = TestGraphs.connectedRandom(25, 35, seed = 12)
    val edges = TestGraphs.edgesDf(spark, g)
    val sparkDeg = GraphOps.degrees(edges)
      .select(col("node").cast("long") as "node", col("degree").cast("long") as "degree")
    Oracle.assertEquivalent(
      sparkDeg,
      """SELECT CAST(u AS BIGINT) AS node, COUNT(*) AS degree FROM (
        |  SELECT CAST(src AS BIGINT) u FROM edges
        |  UNION ALL
        |  SELECT CAST(dst AS BIGINT) u FROM edges
        |) GROUP BY u""".stripMargin,
      "edges" -> edges)
  }

  test("largestComponent matches union-find on multi-component graphs") {
    for (seed <- 1 to 3) {
      val rng = new java.util.SplittableRandom(seed)
      val n = 60
      // sparse random graph — typically several components
      val es = (1 to 45).map(_ => (rng.nextInt(n), rng.nextInt(n)))
        .filter { case (u, v) => u != v }
        .map { case (u, v) => (math.min(u, v).toLong, math.max(u, v).toLong) }
        .distinct
      val (_, nodeMap) = GraphOps.largestComponent(spark, es.toDF("src", "dst"))
      val map = nodeMap.collect().map(r => (r.getLong(0), r.getLong(1))).sortBy(_._2)
      val oracle = TestGraphs.unionFindComponents(n, es.map(p => (p._1.toInt, p._2.toInt)))
      val touched = es.flatMap(p => Seq(p._1.toInt, p._2.toInt)).distinct
      val largest = touched.groupBy(oracle(_)).values.map(_.sorted)
        .maxBy(c => (c.size, -c.head))
      assert(map.map(_._1.toInt).toSeq == largest, s"seed=$seed")
      assert(map.map(_._2).toSeq == (0L until largest.size), s"seed=$seed")
    }
  }

  test("largestComponent breaks a size tie toward the smaller node id") {
    // two triangles: {20,21,22} and {5,6,7}
    val df = rawDf((20L, 21L), (21L, 22L), (20L, 22L), (5L, 6L), (6L, 7L), (5L, 7L))
    val (edges, nodeMap) = GraphOps.largestComponent(spark, df)
    val map = nodeMap.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(map == Map(5L -> 0L, 6L -> 1L, 7L -> 2L))
    assert(edges.count() == 3)
  }

  test("largestComponent keeps src < dst and remaps in node-id order across id gaps") {
    // component A: {3, 40, 700, 9000} (path plus a chord); B: {5, 6}; C: {1000, 2000}
    val df = rawDf((3L, 9000L), (40L, 700L), (3L, 40L), (700L, 9000L), (5L, 6L), (1000L, 2000L))
    val (edges, nodeMap) = GraphOps.largestComponent(spark, df)
    val rows = edges.collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(rows.length == 4)
    rows.foreach { case (s, d) => assert(s < d, s"edge ($s,$d)") }
    val map = nodeMap.collect().map(r => (r.getLong(0), r.getLong(1))).sortBy(_._1)
    assert(map.map(_._1).toSeq == Seq(3L, 40L, 700L, 9000L))
    assert(map.map(_._2).toSeq == Seq(0L, 1L, 2L, 3L), "newId must rise with the node id")
  }

  test("largestComponent keeps the bigger side and remaps to [0, n)") {
    // component A: triangle {0,1,2}; component B: edge {10,11}
    val df = rawDf((0L, 1L), (1L, 2L), (0L, 2L), (10L, 11L))
    val (edges, nodeMap) = GraphOps.largestComponent(spark, df)
    assert(edges.count() == 3)
    val ids = nodeMap.select("newId").collect().map(_.getLong(0)).sorted
    assert(ids.toSeq == Seq(0L, 1L, 2L))
    val endpoints = edges.select("src").union(edges.select("dst"))
      .collect().map(_.getLong(0)).toSet
    assert(endpoints == Set(0L, 1L, 2L))
  }

  test("largestComponent preserves edge structure up to relabeling") {
    val g = TestGraphs.connectedRandom(30, 45, seed = 14)
    val (edges, _) = GraphOps.largestComponent(spark, TestGraphs.edgesDf(spark, g))
    assert(edges.count() == g.numEdges) // already connected: nothing dropped
    val rebuilt = CsrGraph.fromDataFrames(edges,
      spark.range(g.numNodes).select(col("id") as "node", lit(0) as "label"))
    assert((0 until g.numNodes).map(rebuilt.degree).sorted ==
           (0 until g.numNodes).map(g.degree).sorted)
  }

  test("largestComponent output is connected (union-find check)") {
    val rng = new java.util.SplittableRandom(99)
    val es = (1 to 80).map(_ => (rng.nextInt(50), rng.nextInt(50)))
      .filter { case (u, v) => u != v }
      .map { case (u, v) => (math.min(u, v).toLong, math.max(u, v).toLong) }.distinct
    val (edges, nodeMap) = GraphOps.largestComponent(spark, es.toDF("src", "dst"))
    val n = nodeMap.count().toInt
    val local = edges.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt))
    val comp = TestGraphs.unionFindComponents(n, local.toSeq)
    assert(comp.toSet.size == 1)
  }

  test("remapLabels drops nodes outside the component and renames ids") {
    val df = rawDf((0L, 1L), (1L, 2L), (0L, 2L), (10L, 11L))
    val (_, nodeMap) = GraphOps.largestComponent(spark, df)
    val labels = Seq((0L, 7), (1L, 8), (2L, 9), (10L, 1), (11L, 1)).toDF("node", "label")
    val out = GraphOps.remapLabels(labels, nodeMap).collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(out.keySet == Set(0L, 1L, 2L))
    assert(out.values.toSeq.sorted == Seq(7, 8, 9))
  }
}
