package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.graph.CsrGraph

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

  test("incidentTargetCounts agrees with the DuckDB oracle") {
    for ((t1, t2) <- Seq((1, 2), (2, 2))) {
      Oracle.assertEquivalent(
        GroundTruth.incidentTargetCounts(edges, labels, t1, t2),
        s"""WITH hits AS (
           |  SELECT e.src, e.dst
           |  FROM edges e
           |  JOIN labels a ON e.src = a.node
           |  JOIN labels b ON e.dst = b.node
           |  WHERE (a.label = '$t1' AND b.label = '$t2')
           |     OR (a.label = '$t2' AND b.label = '$t1'))
           |SELECT l.node AS node, COUNT(h.node) AS t
           |FROM labels l
           |LEFT JOIN (SELECT src AS node FROM hits UNION ALL SELECT dst AS node FROM hits) h
           |  ON l.node = h.node
           |GROUP BY l.node""".stripMargin,
        "edges" -> edges, "labels" -> labels)
    }
  }

  test("labelPairCounts covers all edges exactly once") {
    val total = GroundTruth.labelPairCounts(g).map(_._3).sum
    assert(total == g.numEdges)
  }

  test("labelPairCounts agrees with the DuckDB oracle") {
    Oracle.assertEquivalent(
      GroundTruth.labelPairCounts(g).toDF("l1", "l2", "cnt"),
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
    val counts = GroundTruth.labelPairCounts(g).map { case (l1, l2, cnt) => (l1, l2) -> cnt }.toMap
    for (t1 <- 1 to 3; t2 <- t1 to 3) {
      assert(counts.getOrElse((t1, t2), 0L) == TestGraphs.bruteForceF(g, t1, t2), s"($t1,$t2)")
    }
  }

  test("labelPairCounts: one row per present pair, l1 <= l2, ascending (l1, l2)") {
    val rows = GroundTruth.labelPairCounts(g)
    assert(rows.forall { case (l1, l2, cnt) => l1 <= l2 && cnt > 0 })
    assert(rows.map(r => (r._1, r._2)) == rows.map(r => (r._1, r._2)).distinct.sorted)
  }

  test("labelPairCounts of the DataFrames equals the CSR table") {
    assert(GroundTruth.labelPairCounts(edges, labels) == GroundTruth.labelPairCounts(g))
  }

  test("labelPairCounts keeps negative labels and full-range labels apart") {
    val h = CsrGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (3, 0)),
                               Seq(0 -> -1, 1 -> Int.MaxValue, 2 -> -1, 3 -> Int.MinValue))
    assert(GroundTruth.labelPairCounts(h) ==
           Seq((Int.MinValue, -1, 2L), (-1, Int.MaxValue, 2L)))
  }
}
