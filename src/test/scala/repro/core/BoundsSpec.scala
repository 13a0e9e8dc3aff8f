package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestGraphs}
import repro.graph.GraphOps

class BoundsSpec extends SparkSpec {

  private lazy val g = TestGraphs.connectedRandom(40, 80, seed = 91, nLabels = 3)
  private lazy val f = TestGraphs.bruteForceF(g, 1, 2)

  private def incidentDf: DataFrame = {
    val edges = TestGraphs.edgesDf(spark, g)
    GroundTruth.incidentTargetCounts(edges, TestGraphs.labelsDf(spark, g), 1, 2)
      .join(GraphOps.degrees(edges), Seq("node"))
      .select(col("node"), col("degree"), col("t"))
  }

  test("Theorem 4.1 closed form: (|E|F - F^2)/(eps^2 F^2 delta)") {
    val nE = g.numEdges
    val expected = (nE.toDouble * f - f.toDouble * f) / (0.01 * f.toDouble * f * 0.1)
    assert(math.abs(Bounds.nsHansenHurwitz(nE, f, 0.1, 0.1) - expected) < 1e-6)
  }

  test("Theorem 4.2 closed form matches a direct evaluation") {
    val nE = g.numEdges
    val b = 0.1 * 0.01 * f.toDouble * f / nE
    val expected = math.log((1 + b) / b) / math.log(1.0 / (1.0 - 1.0 / nE))
    assert(math.abs(Bounds.nsHorvitzThompson(nE, f, 0.1, 0.1) - expected) < 1e-6)
  }

  test("Theorem 4.3 DataFrame aggregation matches local computation") {
    val nE = g.numEdges
    val local = (0 until g.numNodes).map { u =>
      val t = g.targetEdgesAt(u, 1, 2).toDouble
      2.0 * nE * t * t / g.degree(u)
    }.sum
    val expected = (local - 4.0 * f * f) / (4.0 * 0.01 * f.toDouble * f * 0.1)
    val got = Bounds.all(incidentDf, g.numNodes, nE, f, 0.1, 0.1).neHH
    assert(math.abs(got - expected) < math.abs(expected) * 1e-9 + 1e-9)
  }

  test("Theorem 4.4 DataFrame max matches local computation") {
    val nE = g.numEdges
    val b = 4.0 * 0.1 * 0.01 * f.toDouble * f / g.numNodes
    val expected = (0 until g.numNodes).map { u =>
      val t = g.targetEdgesAt(u, 1, 2).toDouble
      math.log((t * t + b) / b) / -math.log(1.0 - g.degree(u) / (2.0 * nE))
    }.max
    val got = Bounds.all(incidentDf, g.numNodes, nE, f, 0.1, 0.1).neHT
    assert(math.abs(got - expected) < math.abs(expected) * 1e-9 + 1e-9)
  }

  test("Theorem 4.5 DataFrame aggregation matches local computation") {
    val nE = g.numEdges; val nV = g.numNodes
    val sT = (0 until nV).map { u =>
      val t = g.targetEdgesAt(u, 1, 2).toDouble
      2.0 * nE * t * t / g.degree(u)
    }.sum
    val sInv = (0 until nV).map(u => 2.0 * nE / g.degree(u)).sum
    val kT = 18.0 * (sT - 4.0 * f * f) / (4.0 * 0.01 * f.toDouble * f * 0.1)
    val kZ = 18.0 * (sInv - nV.toDouble * nV) / (0.01 * nV.toDouble * nV * 0.1)
    val got = Bounds.all(incidentDf, nV, nE, f, 0.1, 0.1).neRW
    assert(math.abs(got - math.max(kT, kZ)) < math.abs(got) * 1e-9 + 1e-9)
  }

  test("all five bounds are positive and finite on a real fixture") {
    val b = Bounds.all(incidentDf, g.numNodes, g.numEdges, f)
    Seq(b.nsHH, b.nsHT, b.neHH, b.neHT, b.neRW).foreach { v =>
      assert(v > 0 && java.lang.Double.isFinite(v), s"$b")
    }
  }

  test("bounds grow as eps shrinks") {
    val loose = Bounds.all(incidentDf, g.numNodes, g.numEdges, f, eps = 0.2, delta = 0.1)
    val tight = Bounds.all(incidentDf, g.numNodes, g.numEdges, f, eps = 0.05, delta = 0.1)
    assert(tight.nsHH > loose.nsHH)
    assert(tight.nsHT > loose.nsHT)
    assert(tight.neHH > loose.neHH)
    assert(tight.neHT > loose.neHT)
    assert(tight.neRW > loose.neRW)
  }

  test("bounds grow as delta shrinks") {
    val loose = Bounds.all(incidentDf, g.numNodes, g.numEdges, f, eps = 0.1, delta = 0.2)
    val tight = Bounds.all(incidentDf, g.numNodes, g.numEdges, f, eps = 0.1, delta = 0.05)
    assert(tight.nsHH > loose.nsHH && tight.nsHT > loose.nsHT && tight.neHH > loose.neHH)
  }

  test("NS-HH bound shrinks as F grows (easier problems need fewer samples)") {
    val nE = 1000L
    assert(Bounds.nsHansenHurwitz(nE, 500, 0.1, 0.1) <
           Bounds.nsHansenHurwitz(nE, 10, 0.1, 0.1))
  }

  test("star-graph NE bounds: exploration of the hub nails F quickly") {
    // star with center label 1, leaves 2: T(center)=d(center), T(leaf)=1,
    // so NE-HH variance term Σ 2|E|T²/d − 4F² = 2E(E + E²... ) — just check
    // the bound is dramatically smaller than the NS-HH bound is NOT implied;
    // instead check both formulas produce the hand-computed values.
    val star = TestGraphs.star(10)
    val e = star.numEdges // 9, F = 9
    val fS = 9L
    import spark.implicits._
    val inc = (0 until 10).map(u =>
      (u.toLong, star.degree(u).toLong, star.targetEdgesAt(u, 1, 2).toLong))
      .toDF("node", "degree", "t")
    // Σ 2E·T²/d = center: 2·9·81/9=162, each leaf: 2·9·1/1=18 ⇒ 162+9·18=324
    val expected = (324.0 - 4.0 * fS * fS) / (4.0 * 0.01 * fS * fS * 0.1)
    val got = Bounds.all(inc, star.numNodes, e, fS, 0.1, 0.1).neHH
    assert(math.abs(got - expected) < 1e-9)
  }

  test("all rejects F = 0 (every bound divides by F²)") {
    intercept[IllegalArgumentException](Bounds.all(incidentDf, g.numNodes, g.numEdges, 0L))
  }
}
