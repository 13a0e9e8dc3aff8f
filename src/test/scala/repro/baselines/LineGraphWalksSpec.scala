package repro.baselines

import java.util.SplittableRandom

import repro.{SparkSpec, TestGraphs}
import repro.core.NeighborSample
import repro.graph.CsrGraph

class LineGraphWalksSpec extends SparkSpec {
  import LineGraphWalks._

  private lazy val g = TestGraphs.connectedRandom(30, 60, seed = 81, nLabels = 3)
  private lazy val f = TestGraphs.bruteForceF(g, 1, 2).toDouble

  test("defaultVariants covers the five baselines with paper parameter ranges") {
    val vs = defaultVariants
    assert(vs.map(_.name) == Seq(RW, MHRW, MDRW, RCMH, GMD))
    assert(vs.collect { case ExRcmh(a) => a }.head <= 0.3)
    val d = vs.collect { case ExGmd(x) => x }.head
    assert(d >= 0.3 && d <= 0.7)
  }

  test("one row per checkpoint, correctly named") {
    for (v <- defaultVariants) {
      val out = LineGraphWalks.run(g, v, 1, 2, Seq(5, 10), 50, new SplittableRandom(1))
      assert(out.length == 2, v.name)
      // slot j holds checkpoint j: each equals a run to that checkpoint alone
      Seq(5, 10).zipWithIndex.foreach { case (k, j) =>
        val alone = LineGraphWalks.run(g, v, 1, 2, Seq(k), 50, new SplittableRandom(1))
        assert(out(j) == alone(0), s"${v.name} k=$k")
      }
    }
  }

  test("checkpoints must be ascending") {
    Seq(Seq(9, 3), Seq(10, 10)).foreach { cps =>
      intercept[IllegalArgumentException](
        LineGraphWalks.run(g, ExRw, 1, 2, cps, 10, new SplittableRandom(1)))
    }
  }

  test("checkpoints below 1 fail loudly") {
    for (v <- defaultVariants) intercept[IllegalArgumentException](
      LineGraphWalks.run(g, v, 1, 2, Seq(0, 10, 20), 10, new SplittableRandom(1)))
  }

  test("burn-in must be non-negative") {
    intercept[IllegalArgumentException](
      LineGraphWalks.run(g, ExRw, 1, 2, Seq(5), -1, new SplittableRandom(1)))
  }

  test("EX-RCMH requires a finite alpha in [0, 1]") {
    Seq(Double.NaN, -0.1, 1.5, Double.PositiveInfinity).foreach { a =>
      intercept[IllegalArgumentException](ExRcmh(a))
    }
  }

  test("EX-GMD requires a finite delta > 0") {
    Seq(Double.NaN, 0.0, -0.5, Double.PositiveInfinity).foreach { d =>
      intercept[IllegalArgumentException](ExGmd(d))
    }
  }

  test("kernel equals the tuple reference implementation bit for bit") {
    // the single edge has d' = 0: the chain can only self-loop, and EX-RW /
    // EX-RCMH(α < 1) weight it by 1/0 = ∞, so its target estimates are NaN
    val graphs = Seq(
      "random" -> g,
      "single edge" -> CsrGraph.fromEdges(2, Seq((0, 1)), Seq(0 -> 1, 1 -> 2)),
      "star" -> TestGraphs.star(7),
      "path" -> TestGraphs.path(6),
      "complete" -> TestGraphs.complete(6),
      "rare labels" -> TestGraphs.rareLabelGraph(40, 4, seed = 83),
      // a hub with 30 leaves, one of them the end of a 30-edge path: line
      // degrees 1..30, so the MD chains self-loop for long runs on the path
      // and EX-RCMH rejects moves onto the hub's edges
      "skewed" -> CsrGraph.fromEdges(61, (1 to 30).map(i => (0, i)) ++ (30 until 60).map(i => (i, i + 1)),
        (0 until 61).map(u => u -> (u % 3 + 1))),
    )
    val variants = defaultVariants ++ Seq(ExRcmh(0.0), ExRcmh(1.0), ExGmd(1.0))
    for {
      (name, graph) <- graphs
      v <- variants
      (t1, t2) <- Seq((1, 2), (2, 3))
      burnIn <- Seq(0, 7)
      checkpoints <- Seq(Seq(1, 5, 40), Seq(3, 100, 400))
      seed <- 1 to 50
    } {
      val got = LineGraphWalks.run(graph, v, t1, t2, checkpoints, burnIn, new SplittableRandom(seed))
      val want = LineGraphWalksReference.run(graph, v, t1, t2, checkpoints, burnIn, new SplittableRandom(seed))
      val clue = s"$name ${v.name} ($t1,$t2) burnIn=$burnIn checkpoints=$checkpoints seed=$seed"
      assert(want.map(r => (r._1, r._2)) == checkpoints.map(k => (v.name, k)), clue)
      // slot j is checkpoint j
      assert(got.toSeq.map(java.lang.Double.doubleToLongBits) ==
        want.map(r => java.lang.Double.doubleToLongBits(r._3)), clue)
    }
  }

  test("the filtered EX-RCMH acceptance equals the direct pow test, also at its boundary") {
    val rng = new SplittableRandom(17)
    for (alpha <- Seq(0.0, 0.3, 0.5, 1.0)) {
      val dPow = new Array[Double](301) // filled lazily, as in a chain
      var mismatches = List.empty[String]
      for (dProp <- 1 to 300; dCur <- 1 to 300) {
        val p = math.pow(dCur.toDouble / dProp, alpha)
        for (x <- Seq(Math.nextDown(p), p, Math.nextUp(p), rng.nextDouble(), rng.nextDouble() * p))
          if (rcmhAccept(x, dCur, dProp, alpha, dPow) != (x < p)) mismatches ::= s"α=$alpha $dCur/$dProp x=$x"
      }
      assert(mismatches.isEmpty, mismatches.take(5).mkString("; "))
    }
  }

  test("deterministic in the seed, sensitive to the seed") {
    for (v <- defaultVariants) {
      val a = LineGraphWalks.run(g, v, 1, 2, Seq(20), 50, new SplittableRandom(3))
      val b = LineGraphWalks.run(g, v, 1, 2, Seq(20), 50, new SplittableRandom(3))
      val c = LineGraphWalks.run(g, v, 1, 2, Seq(20), 50, new SplittableRandom(4))
      assert(a sameElements b, v.name)
      assert(!(a sameElements c) || a.head == c.head, v.name) // different walks may tie numerically
    }
  }

  test("estimates are zero when the target labels are absent") {
    for (v <- defaultVariants) {
      val out = LineGraphWalks.run(g, v, 8, 9, Seq(10, 20), 50, new SplittableRandom(7))
      assert(out.forall(_ == 0.0), v.name)
    }
  }

  test("MHRW stationary distribution is uniform over G'-nodes (edges of G)") {
    val small = TestGraphs.connectedRandom(12, 20, seed = 82)
    val rng = new SplittableRandom(9)
    // long MHRW chain, count visits per edge
    val counts = scala.collection.mutable.Map.empty[Long, Long].withDefaultValue(0L)
    var state = (0, small.neighbor(0, 0))
    def mhStep(): Unit = {
      val (u, v) = state
      val dCur = repro.graph.LineGraph.lineDegree(small, u, v)
      val (a, b) = LineGraphWalksReference.uniformLineNeighbor(small, u, v, rng)
      val dProp = repro.graph.LineGraph.lineDegree(small, a, b)
      if (rng.nextDouble() < dCur.toDouble / dProp) state = (a, b)
    }
    (1 to 2000).foreach(_ => mhStep())
    val n = 300000
    (1 to n).foreach { _ => mhStep(); counts(CsrGraph.edgeKey(state._1, state._2)) += 1 }
    assert(counts.size.toLong == small.numEdges)
    val expected = n.toDouble / small.numEdges
    counts.values.foreach { c =>
      assert(math.abs(c - expected) < 0.12 * expected + 5 * math.sqrt(expected), s"$c vs $expected")
    }
  }

  test("EX-RW is empirically consistent: mean near F") {
    val sims = 400
    val mean = (1 to sims).map { s =>
      LineGraphWalks.run(g, ExRw, 1, 2, Seq(80), 200, new SplittableRandom(1000 + s)).head
    }.sum / sims
    assert(math.abs(mean - f) < 0.15 * f, s"mean=$mean F=$f")
  }

  test("EX-MHRW is empirically unbiased: mean near F") {
    val sims = 400
    val mean = (1 to sims).map { s =>
      LineGraphWalks.run(g, ExMhrw, 1, 2, Seq(80), 200, new SplittableRandom(2000 + s)).head
    }.sum / sims
    assert(math.abs(mean - f) < 0.15 * f, s"mean=$mean F=$f")
  }

  test("EX-MDRW is empirically unbiased: mean near F") {
    val sims = 400
    val mean = (1 to sims).map { s =>
      LineGraphWalks.run(g, ExMdrw, 1, 2, Seq(80), 400, new SplittableRandom(3000 + s)).head
    }.sum / sims
    // self-loop-heavy chain: slower mixing, looser tolerance
    assert(math.abs(mean - f) < 0.25 * f, s"mean=$mean F=$f")
  }

  test("EX-RCMH(0.3) is empirically consistent: mean near F") {
    val sims = 400
    val mean = (1 to sims).map { s =>
      LineGraphWalks.run(g, ExRcmh(0.3), 1, 2, Seq(80), 200, new SplittableRandom(4000 + s)).head
    }.sum / sims
    assert(math.abs(mean - f) < 0.15 * f, s"mean=$mean F=$f")
  }

  test("EX-GMD(0.5) is empirically consistent: mean near F") {
    val sims = 400
    val mean = (1 to sims).map { s =>
      LineGraphWalks.run(g, ExGmd(0.5), 1, 2, Seq(80), 400, new SplittableRandom(5000 + s)).head
    }.sum / sims
    assert(math.abs(mean - f) < 0.25 * f, s"mean=$mean F=$f")
  }

  test("EX-GMD with delta >= 1 behaves like EX-MDRW (same cap, reweighting constant)") {
    // with C = D' the GMD weights are constant, so its estimator reduces to
    // the MDRW plain average; distributions match — compare long-run means.
    val sims = 300
    def mean(v: Variant, base: Int): Double = (1 to sims).map { s =>
      LineGraphWalks.run(g, v, 1, 2, Seq(120), 400, new SplittableRandom(base + s)).head
    }.sum / sims
    val md = mean(ExMdrw, 11000)
    val gmd = mean(ExGmd(1.0), 12000)
    assert(math.abs(md - gmd) < 0.15 * f, s"md=$md gmd=$gmd")
  }

  test("EX-GMD(1) equals EX-MDRW on identical seeds, up to rounding") {
    // C = max(1, D') = D': both chains make the same draws and visit the same
    // states; GMD's constant weights 1/C sum to k/C only up to rounding
    for (seed <- 1 to 200) {
      val md = LineGraphWalks.run(g, ExMdrw, 1, 2, Seq(40, 120), 100, new SplittableRandom(seed))
      val gmd = LineGraphWalks.run(g, ExGmd(1.0), 1, 2, Seq(40, 120), 100, new SplittableRandom(seed))
      md.indices.foreach(j => assert(math.abs(md(j) - gmd(j)) <= 1e-12 * math.abs(md(j)),
        s"seed=$seed slot=$j md=${md(j)} gmd=${gmd(j)}"))
    }
  }

  test("EX-MHRW and EX-MDRW estimates are exact multiples of |E|/k") {
    // unit weights: the ratio estimate is |E|·hits/k for an integer 0 ≤ hits ≤ k
    val checkpoints = Seq(1, 7, 80, 333)
    for (v <- Seq(ExMhrw, ExMdrw); seed <- 1 to 50) {
      val out = LineGraphWalks.run(g, v, 1, 2, checkpoints, 50, new SplittableRandom(seed))
      checkpoints.zipWithIndex.foreach { case (k, j) =>
        val hits = math.round(out(j) * k / g.numEdges)
        assert(hits >= 0 && hits <= k && out(j) == g.numEdges.toDouble * hits / k,
          s"${v.name} seed=$seed k=$k estimate=${out(j)}")
      }
    }
  }

  test("EX-RCMH(1) equals EX-MHRW on identical seeds, bit for bit") {
    // α = 1: the acceptance test is x < d'(e)/d'(f), the MH test, and every
    // weight is d'^0 = 1, the MH chain's unit weight
    val graphs = Seq("random" -> g, "star" -> TestGraphs.star(7),
                     "rare labels" -> TestGraphs.rareLabelGraph(40, 4, seed = 83))
    for ((name, graph) <- graphs; seed <- 1 to 100) {
      val mh = LineGraphWalks.run(graph, ExMhrw, 1, 2, Seq(1, 40, 300), 20, new SplittableRandom(seed))
      val rc = LineGraphWalks.run(graph, ExRcmh(1.0), 1, 2, Seq(1, 40, 300), 20, new SplittableRandom(seed))
      assert(rc.toSeq.map(java.lang.Double.doubleToLongBits) == mh.toSeq.map(java.lang.Double.doubleToLongBits),
        s"$name seed=$seed mh=${mh.toSeq} rcmh=${rc.toSeq}")
    }
  }

  test("EX-RCMH(0) reduces to EX-RW (same stationary law)") {
    val sims = 300
    def mean(v: Variant, base: Int): Double = (1 to sims).map { s =>
      LineGraphWalks.run(g, v, 1, 2, Seq(120), 200, new SplittableRandom(base + s)).head
    }.sum / sims
    val rw = mean(ExRw, 13000)
    val rc = mean(ExRcmh(0.0), 14000)
    assert(math.abs(rw - rc) < 0.15 * f, s"rw=$rw rcmh0=$rc")
  }

  test("baselines lose to NeighborSample on the abundant-label fixture (paper finding)") {
    // (1,2) covers a large share of edges here; the paper's tables show the
    // MD-family baselines far behind in this regime.
    val sims = 200
    def rmse(runner: Int => Double): Double =
      math.sqrt((1 to sims).map { s => val e = runner(s); (e - f) * (e - f) }.sum / sims)
    val nsRmse = rmse(s => NeighborSample
      .run(g, 1, 2, Seq(80), 200, new SplittableRandom(20000 + s))(0)) // HH
    val mdRmse = rmse(s => LineGraphWalks.run(g, ExMdrw, 1, 2, Seq(80), 200, new SplittableRandom(21000 + s)).head)
    assert(nsRmse < mdRmse, s"NS-HH rmse=$nsRmse should beat EX-MDRW rmse=$mdRmse")
  }
}
