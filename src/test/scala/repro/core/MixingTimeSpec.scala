package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.CsrGraph

class MixingTimeSpec extends SparkSpec {

  test("stationary distribution sums to 1 and is proportional to degree") {
    val g = TestGraphs.connectedRandom(30, 50, seed = 41)
    val pi = MixingTime.stationary(g)
    assert(math.abs(pi.sum - 1.0) < 1e-9)
    (0 until g.numNodes).foreach { u =>
      assert(math.abs(pi(u) - g.degree(u) / (2.0 * g.numEdges)) < 1e-12)
    }
  }

  test("stepDistribution preserves probability mass") {
    val g = TestGraphs.connectedRandom(25, 40, seed = 42)
    var p = new Array[Double](g.numNodes); p(3) = 1.0
    (1 to 20).foreach { _ =>
      p = MixingTime.stepDistribution(g, p)
      assert(math.abs(p.sum - 1.0) < 1e-9)
    }
  }

  test("stepDistribution is the SRW transition: uniform over neighbors") {
    val g = TestGraphs.star(5)
    var p = new Array[Double](5); p(0) = 1.0 // at the center
    p = MixingTime.stepDistribution(g, p)
    (1 until 5).foreach(i => assert(math.abs(p(i) - 0.25) < 1e-12))
    assert(p(0) == 0.0)
  }

  test("complete graphs mix almost immediately") {
    val g = TestGraphs.complete(12)
    assert(MixingTime.fromStart(g, 0, eps = 1e-3, maxSteps = 200) <= 10)
  }

  /** path(n) plus the chord (0, 2): the triangle 0-1-2 makes the chain aperiodic. */
  private def chordedPath(n: Int) =
    CsrGraph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1)) :+ ((0, 2)))

  test("paths mix slower than complete graphs") {
    // a plain path is bipartite and would never mix: tP would be the cap
    val k = TestGraphs.complete(16)
    val p = chordedPath(16)
    val tK = MixingTime.fromStart(k, 0, 1e-3, 5000)
    val tP = MixingTime.fromStart(p, 0, 1e-3, 5000)
    assert(tP < 5000, s"path $tP hit the cap")
    assert(tP > 4 * tK, s"path $tP vs complete $tK")
  }

  test("fromStart caps at maxSteps on periodic chains") {
    // an even path is bipartite: from one side the chain never mixes
    val g = TestGraphs.path(4)
    assert(MixingTime.fromStart(g, 0, 1e-6, maxSteps = 50) == 50)
  }

  test("estimate fails loudly when a start hits the step cap") {
    // the chorded path is aperiodic but needs far more than 50 steps
    val e = intercept[IllegalArgumentException](
      MixingTime.estimate(chordedPath(16), 1e-3, extraStarts = 2, maxSteps = 50))
    assert(e.getMessage.contains("0.001") && e.getMessage.contains("50"), e.getMessage)
    assert(!e.getMessage.contains("periodic"), e.getMessage)
  }

  test("estimate names a bipartite graph's walk as periodic") {
    val evenCycle = CsrGraph.fromEdges(6, (0 until 6).map(i => (i, (i + 1) % 6)))
    Seq(TestGraphs.path(4), TestGraphs.star(5), evenCycle).foreach { g =>
      val e = intercept[IllegalArgumentException](
        MixingTime.estimate(g, 1e-3, extraStarts = 2, maxSteps = 50))
      assert(e.getMessage.contains("bipartite") && e.getMessage.contains("periodic"), e.getMessage)
    }
  }

  test("estimate and fromStart reject an eps outside (0, 1) and a cap below 1") {
    val g = TestGraphs.complete(6)
    Seq(Double.NaN, 0.0, -0.1, 1.0, 2.0).foreach { eps =>
      intercept[IllegalArgumentException](MixingTime.estimate(g, eps, extraStarts = 2, maxSteps = 100))
      intercept[IllegalArgumentException](MixingTime.fromStart(g, 0, eps, maxSteps = 100))
    }
    Seq(0, -1).foreach { cap =>
      intercept[IllegalArgumentException](MixingTime.estimate(g, 1e-3, extraStarts = 2, maxSteps = cap))
    }
  }

  test("after the reported mixing time TV is below eps") {
    val g = TestGraphs.connectedRandom(30, 80, seed = 43)
    val t = MixingTime.fromStart(g, 0, 1e-3, 5000)
    assert(t < 5000)
    var p = new Array[Double](g.numNodes); p(0) = 1.0
    (1 to t).foreach(_ => p = MixingTime.stepDistribution(g, p))
    val pi = MixingTime.stationary(g)
    val tv = (0 until g.numNodes).map(u => math.abs(p(u) - pi(u))).sum / 2
    assert(tv < 1e-3)
  }

  test("estimate takes the max over its start sample") {
    val g = TestGraphs.connectedRandom(40, 100, seed = 44)
    val est = MixingTime.estimate(g, 1e-3, extraStarts = 3, maxSteps = 3000)
    val manual = MixingTime.startSample(g, 3).map(MixingTime.fromStart(g, _, 1e-3, 3000)).max
    assert(est == manual)
  }

  test("startSample includes the maximum-degree node") {
    val g = TestGraphs.star(20)
    assert(MixingTime.startSample(g, 3).contains(0))
  }
}
