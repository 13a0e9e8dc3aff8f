package repro.exp

import org.apache.spark.sql.functions.col
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Millis, Seconds, Span}

import repro.SparkSpec
import repro.core.{Bounds, GroundTruth, Nrmse}
import repro.graph.{CsrGraph, GraphOps}

class TablesSpec extends SparkSpec {

  private lazy val built = Datasets.build(spark, TinySpecs.gender)
  private lazy val table = Tables.nrmseTable(spark, built, built.pairs.head, sims = 25, seedBase = 7)

  test("nrmseTable runs all ten algorithms on the paper budget grid") {
    assert(table.results.keySet == Nrmse.AllAlgorithms.toSet)
    assert(table.checkpoints == Nrmse.paperCheckpoints(built.nV))
    table.results.values.foreach(m => assert(m.keySet == table.checkpoints.toSet))
  }

  test("NRMSE values are finite and non-negative") {
    table.results.values.flatMap(_.values).foreach { v =>
      assert(v >= 0 && java.lang.Double.isFinite(v))
    }
  }

  test("caption carries the label pair, count and percentage") {
    assert(table.caption.contains(built.name))
    assert(table.caption.contains(s"(${built.pairs.head.t1},${built.pairs.head.t2})"))
    assert(table.caption.contains(s"number of target edges=${built.pairs.head.f}"))
  }

  test("render prints one row per algorithm in paper order") {
    val r = table.render
    Nrmse.AllAlgorithms.foreach(alg => assert(r.contains(alg), alg))
    val lines = r.linesIterator.toSeq
    assert(lines.length == 2 + 10) // caption + header + 10 rows
  }

  test("at() indexes by budget position") {
    val alg = Nrmse.AllAlgorithms.head
    assert(table.at(alg, 0) == table.results(alg)(table.checkpoints.head))
    assert(table.at(alg, table.checkpoints.size - 1) ==
           table.results(alg)(table.checkpoints.last))
  }

  test("bestAtMax returns the smallest NRMSE at the largest budget") {
    val (alg, v) = table.bestAtMax
    val k = table.checkpoints.last
    table.results.foreach { case (_, m) => assert(m(k) >= v) }
    assert(table.results(alg)(k) == v)
  }

  /** `built` with a graph of its own, over copies of its arrays, so every
    * broadcast block over those arrays comes from the calls under test.
    */
  private def withOwnGraph(b: Datasets.Built) =
    b.copy(g = new CsrGraph(b.g.offsets.clone(), b.g.neighbors.clone(), b.g.labels.clone()))

  test("two nrmseTable cells on one Built leave exactly one broadcast block holding its graph") {
    val b = withOwnGraph(built)
    Tables.nrmseTable(spark, b, b.pairs.head, sims = 4, seedBase = 1)
    val first = broadcastsOfGraph(b.g.neighbors)
    assert(first.size == 1)
    Tables.nrmseTable(spark, b, b.pairs.head, sims = 4, seedBase = 2)
    assert(b.g.broadcast(spark.sparkContext) eq b.g.broadcast(spark.sparkContext))
    assert(broadcastsOfGraph(b.g.neighbors) == first)
  }

  test("a Built's broadcast is removed once the Built is garbage-collected") {
    var b = withOwnGraph(built)
    val neighbors = b.g.neighbors
    Tables.nrmseTable(spark, b, b.pairs.head, sims = 4)
    assert(broadcastsOfGraph(neighbors).size == 1)
    b = null
    // Spark's ContextCleaner removes a broadcast whose handle was collected
    eventually(timeout(Span(30, Seconds)), interval(Span(200, Millis))) {
      System.gc()
      assert(broadcastsOfGraph(neighbors).isEmpty)
    }
  }

  test("nrmseTable's grid equals Nrmse.run on the dataset's graph, bit for bit") {
    def bits(r: Map[String, Map[Int, Double]]) =
      r.map { case (a, m) => a -> m.map { case (k, v) => k -> java.lang.Double.doubleToLongBits(v) } }
    val p = built.pairs.head
    val viaRun = Nrmse.run(spark, built.g, p.t1, p.t2, table.checkpoints, built.burnIn, 25, p.f, seedBase = 7)
    assert(bits(table.results) == bits(viaRun))
  }

  test("nrmseTable rejects sims = 0 and a negative burn-in before it broadcasts the graph") {
    val b = withOwnGraph(built)
    intercept[IllegalArgumentException](Tables.nrmseTable(spark, b, b.pairs.head, sims = 0))
    intercept[IllegalArgumentException](Tables.nrmseTable(spark, b.copy(burnIn = -1), b.pairs.head, sims = 2))
    assert(broadcastsOfGraph(b.g.neighbors).isEmpty)
  }

  test("boundsRow computes positive finite Theorem 4.1-4.5 bounds") {
    val b = Tables.boundsRow(spark, built, built.pairs.head)
    Seq(b.nsHH, b.nsHT, b.neHH, b.neHT, b.neRW).foreach { v =>
      assert(v > 0 && java.lang.Double.isFinite(v), s"$b")
    }
  }

  test("boundsRow on the CSR graph equals Bounds.all over the DataFrame T(u) path") {
    for (b <- Seq(built, Datasets.build(spark, TinySpecs.zipf)); p <- b.pairs) {
      val incident = GroundTruth.incidentTargetCounts(b.edges, b.labels, p.t1, p.t2)
        .join(GraphOps.degrees(b.edges), Seq("node"))
        .select(col("node"), col("degree"), col("t"))
      val expected = Bounds.all(incident, b.nV, b.nE, p.f)
      val got = Tables.boundsRow(spark, b, p)
      def values(s: Bounds.SampleBounds) = Seq(s.nsHH, s.nsHT, s.neHH, s.neHT, s.neRW)
      values(got).zip(values(expected)).foreach { case (x, y) =>
        assert(math.abs(x - y) <= 1e-9 * math.abs(y), s"${b.name} (${p.t1},${p.t2}): $got vs $expected")
      }
    }
  }

  test("renderBounds formats one row per pair") {
    val b = Tables.boundsRow(spark, built, built.pairs.head)
    val out = Tables.renderBounds(built.name, Seq(built.pairs.head -> b))
    assert(out.contains(built.name))
    assert(out.linesIterator.size == 3)
  }

  test("renderSummary reports the best algorithm per table") {
    val out = Tables.renderSummary(Seq(table))
    assert(out.contains(table.bestAtMax._1))
    assert(out.linesIterator.size == 3)
  }
}
