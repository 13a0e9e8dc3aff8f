package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestGraphs}

class GroundTruthSpec extends SparkSpec {
  import spark.implicits._

  private lazy val g = TestGraphs.connectedRandom(40, 80, seed = 51, nLabels = 3)
  private lazy val edges = TestGraphs.edgesDf(spark, g).cache()
  private lazy val labels = TestGraphs.labelsDf(spark, g).cache()

  test("targetEdgeCount matches brute force for every label pair") {
    for (t1 <- 1 to 3; t2 <- t1 to 3) {
      assert(GroundTruth.targetEdgeCount(edges, labels, t1, t2) ==
             TestGraphs.bruteForceF(g, t1, t2), s"($t1,$t2)")
    }
  }

  test("targetEdgeCount is symmetric in the label pair") {
    assert(GroundTruth.targetEdgeCount(edges, labels, 1, 2) ==
           GroundTruth.targetEdgeCount(edges, labels, 2, 1))
  }

  test("targetEdgeCount agrees with the DuckDB oracle") {
    val f = GroundTruth.targetEdgeCount(edges, labels, 1, 2)
    Oracle.assertEquivalent(
      Seq(f).toDF("f"),
      """SELECT COUNT(*) AS f
        |FROM edges e
        |JOIN labels a ON e.src = a.node
        |JOIN labels b ON e.dst = b.node
        |WHERE (a.label = '1' AND b.label = '2')
        |   OR (a.label = '2' AND b.label = '1')""".stripMargin,
      "edges" -> edges, "labels" -> labels)
  }

  test("targetEdgeCount with t1 == t2 agrees with the DuckDB oracle") {
    val f = GroundTruth.targetEdgeCount(edges, labels, 2, 2)
    Oracle.assertEquivalent(
      Seq(f).toDF("f"),
      """SELECT COUNT(*) AS f
        |FROM edges e
        |JOIN labels a ON e.src = a.node
        |JOIN labels b ON e.dst = b.node
        |WHERE a.label = '2' AND b.label = '2'""".stripMargin,
      "edges" -> edges, "labels" -> labels)
  }

  test("targetEdgeCount is zero for absent labels") {
    assert(GroundTruth.targetEdgeCount(edges, labels, 8, 9) == 0)
  }

  test("targetEdgeCountLocal equals the DataFrame computation") {
    for (t1 <- 1 to 3; t2 <- t1 to 3) {
      assert(GroundTruth.targetEdgeCountLocal(g, t1, t2) ==
             GroundTruth.targetEdgeCount(edges, labels, t1, t2), s"($t1,$t2)")
    }
  }

  test("incidentTargetCounts: one row per node, zeros included") {
    val t = GroundTruth.incidentTargetCounts(edges, labels, 1, 2)
    assert(t.count() == g.numNodes)
    assert(t.where(col("t") === 0).count() > 0)
  }

  test("incidentTargetCounts matches targetEdgesAt per node") {
    val t = GroundTruth.incidentTargetCounts(edges, labels, 1, 2).collect()
      .map(r => r.getLong(0).toInt -> r.getLong(1)).toMap
    (0 until g.numNodes).foreach { u =>
      assert(t(u) == g.targetEdgesAt(u, 1, 2).toLong, s"node $u")
    }
  }

  test("incidentTargetCounts sums to 2F (paper identity)") {
    for (t1 <- 1 to 3; t2 <- t1 to 3) {
      val sumT = GroundTruth.incidentTargetCounts(edges, labels, t1, t2)
        .agg(sum("t")).head().getLong(0)
      assert(sumT == 2 * TestGraphs.bruteForceF(g, t1, t2), s"($t1,$t2)")
    }
  }

  test("labelPairCounts covers all edges exactly once") {
    val total = GroundTruth.labelPairCounts(edges, labels).agg(sum("cnt")).head().getLong(0)
    assert(total == g.numEdges)
  }

  test("labelPairCounts agrees with the DuckDB oracle") {
    val sparkDf = GroundTruth.labelPairCounts(edges, labels)
      .select(col("l1").cast("int") as "l1", col("l2").cast("int") as "l2", col("cnt"))
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT LEAST(CAST(a.label AS INT), CAST(b.label AS INT)) AS l1,
        |       GREATEST(CAST(a.label AS INT), CAST(b.label AS INT)) AS l2,
        |       COUNT(*) AS cnt
        |FROM edges e
        |JOIN labels a ON e.src = a.node
        |JOIN labels b ON e.dst = b.node
        |GROUP BY 1, 2""".stripMargin,
      "edges" -> edges, "labels" -> labels)
  }

  test("labelPairCounts matches brute force per pair") {
    val counts = GroundTruth.labelPairCounts(edges, labels).collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getLong(2)).toMap
    for (t1 <- 1 to 3; t2 <- t1 to 3) {
      assert(counts.getOrElse((t1, t2), 0L) == TestGraphs.bruteForceF(g, t1, t2), s"($t1,$t2)")
    }
  }
}
