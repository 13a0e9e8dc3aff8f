package repro.exp

import org.apache.spark.sql.functions.col

import repro.SparkSpec
import repro.core.{Bounds, GroundTruth, Nrmse}
import repro.graph.GraphOps

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
      got.productIterator.zip(expected.productIterator).foreach { case (x: Double, y: Double) =>
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
    val out = Tables.renderSummary("Best for tiny", Seq(table))
    assert(out.contains(table.bestAtMax._1))
    assert(out.linesIterator.size == 3)
  }
}
