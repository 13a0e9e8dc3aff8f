package repro.core

import java.util.SplittableRandom

import scala.collection.mutable

import repro.{SparkSpec, TestGraphs}
import repro.graph.CsrGraph

class NeighborSampleSpec extends SparkSpec {

  private lazy val g = TestGraphs.connectedRandom(30, 60, seed = 71, nLabels = 3)
  private lazy val f = TestGraphs.bruteForceF(g, 1, 2).toDouble

  test("emits one row per estimator per checkpoint") {
    val cps = Seq(5, 10, 20)
    val out = NeighborSample.run(g, 1, 2, cps, 100, new SplittableRandom(1))
    assert(out.length == 2 * cps.size)
    // HH at checkpoint j in slot j, HT in slot nK + j: each equals a run to that checkpoint alone
    cps.zipWithIndex.foreach { case (k, j) =>
      val alone = NeighborSample.run(g, 1, 2, Seq(k), 100, new SplittableRandom(1))
      assert(Seq(out(j), out(cps.size + j)) == alone.toSeq, s"k=$k")
    }
  }

  test("checkpoints must be ascending") {
    Seq(Seq(10, 5), Seq(10, 10)).foreach { cps =>
      intercept[IllegalArgumentException](
        NeighborSample.run(g, 1, 2, cps, 10, new SplittableRandom(1)))
    }
  }

  test("checkpoints below 1 fail loudly") {
    intercept[IllegalArgumentException](
      NeighborSample.run(g, 1, 2, Seq(0, 10, 20), 10, new SplittableRandom(1)))
  }

  test("negative burn-in fails loudly") {
    intercept[IllegalArgumentException](
      NeighborSample.run(g, 1, 2, Seq(5), -1, new SplittableRandom(1)))
  }

  test("deterministic in the seed") {
    val a = NeighborSample.run(g, 1, 2, Seq(10, 30), 50, new SplittableRandom(3))
    val b = NeighborSample.run(g, 1, 2, Seq(10, 30), 50, new SplittableRandom(3))
    val c = NeighborSample.run(g, 1, 2, Seq(10, 30), 50, new SplittableRandom(4))
    assert(a sameElements b)
    assert(!(a sameElements c))
  }

  test("prefix consistency: estimate at k is independent of later checkpoints") {
    val full = NeighborSample.run(g, 1, 2, Seq(10, 40), 50, new SplittableRandom(5))
    val short = NeighborSample.run(g, 1, 2, Seq(10), 50, new SplittableRandom(5))
    assert(Seq(full(0), full(2)) == short.toSeq) // HH and HT at k = 10
  }

  test("HH estimates are multiples of |E|/k") {
    val out = NeighborSample.run(g, 1, 2, Seq(20), 50, new SplittableRandom(6))
    val hh = out(0)
    val unit = g.numEdges.toDouble / 20
    assert(math.abs(hh / unit - math.round(hh / unit)) < 1e-9)
  }

  test("estimates are zero when the target labels are absent") {
    val out = NeighborSample.run(g, 8, 9, Seq(10, 20), 50, new SplittableRandom(7))
    assert(out.forall(_ == 0.0))
  }

  test("HH is empirically unbiased: mean over sims close to F") {
    val sims = 600
    val mean = (1 to sims).map { s =>
      NeighborSample.run(g, 1, 2, Seq(40), 150, new SplittableRandom(1000 + s))(0)
    }.sum / sims
    assert(math.abs(mean - f) < 0.10 * f, s"mean=$mean F=$f")
  }

  /** E[NS-HT] after k sampled steps of a walk started uniformly and burned in
    * for `burnIn` steps, exactly: E[distinct target edges] = Σₑ (1 − P(the k
    * sampled steps avoid e)) over the target edges e = {a, b}, divided by
    * 1 − (1 − 1/|E|)^k. Each P is a killed-chain forward recursion: the
    * burned-in law propagated k steps by `MixingTime.stepDistribution` with
    * the flow across e in both directions removed, so the mass left is the
    * walk's chance of never crossing e.
    */
  private def exactHtMean(k: Int, burnIn: Int): Double = {
    var p = Array.fill(g.numNodes)(1.0 / g.numNodes)
    (1 to burnIn).foreach(_ => p = MixingTime.stepDistribution(g, p))
    val targets = TestGraphs.edgeList(g).filter { case (a, b) => g.isTargetEdge(a, b, 1, 2) }
    val expectedDistinct = targets.map { case (a, b) =>
      var q = p
      (1 to k).foreach { _ =>
        val next = MixingTime.stepDistribution(g, q)
        next(b) -= q(a) / g.degree(a)
        next(a) -= q(b) / g.degree(b)
        q = next
      }
      1.0 - q.sum
    }.sum
    expectedDistinct / Estimators.htInclusionProb(1.0 / g.numEdges, k)
  }

  test("HT mean over sims matches its exact expectation on the walk") {
    // HT is biased on a walk without thinning (DESIGN.md §3): the mean is
    // compared with the walk's exact expectation, not with F, within a rule
    // fixed before the first run: 4 standard errors of the 600-sim mean
    val sims = 600
    val est = (1 to sims).map { s =>
      NeighborSample.run(g, 1, 2, Seq(40), 150, new SplittableRandom(5000 + s))(1)
    }
    val mean = est.sum / sims
    val sd = math.sqrt(est.map(e => (e - mean) * (e - mean)).sum / (sims - 1))
    val exact = exactHtMean(k = 40, burnIn = 150)
    assert(math.abs(mean - exact) <= 4 * sd / math.sqrt(sims), s"mean=$mean exact=$exact sd=$sd F=$f")
  }

  test("exactHtMean's recursion gives the stationary hit chance of one step") {
    // after a long burn-in the law is π, and one step crosses a given edge
    // with chance exactly 1/|E|, so E[distinct] = #target edges / |E| and
    // E[HT] at k = 1 is the number of target edges, F
    assert(math.abs(exactHtMean(k = 1, burnIn = 2000) - f) < 1e-9 * f)
  }

  test("runLanes: lane l equals run on rngs(l), bit for bit") {
    def bits(est: Array[Double]) = est.toSeq.map(java.lang.Double.doubleToLongBits)
    for (cps <- Seq(Seq(40), Seq(1, 7, 300)); burnIn <- Seq(0, 150); lanes <- Seq(1, 3, 17)) {
      val seeds = (0 until lanes).map(l => 700L + 31 * l)
      val got = NeighborSample.runLanes(g, 1, 2, cps, burnIn, seeds.map(new SplittableRandom(_)).toArray)
      assert(got.length == lanes)
      seeds.zip(got).foreach { case (seed, lane) =>
        assert(bits(lane) == bits(NeighborSample.run(g, 1, 2, cps, burnIn, new SplittableRandom(seed))),
          s"checkpoints $cps burn-in $burnIn lanes $lanes seed $seed")
      }
    }
  }

  test("runLanes with no lanes returns no rows, and checks the schedule") {
    assert(NeighborSample.runLanes(g, 1, 2, Seq(5), 10, Array.empty[SplittableRandom]).isEmpty)
    intercept[IllegalArgumentException](
      NeighborSample.runLanes(g, 1, 2, Seq(5, 5), 10, Array(new SplittableRandom(1))))
  }

  test("HH error shrinks with the budget (variance sanity)") {
    def rmse(k: Int, seedBase: Int): Double = {
      val sims = 300
      math.sqrt((1 to sims).map { s =>
        val est = NeighborSample.run(g, 1, 2, Seq(k), 150, new SplittableRandom(seedBase + s))(0)
        (est - f) * (est - f)
      }.sum / sims)
    }
    assert(rmse(200, 90000) < rmse(8, 80000), "k=200 must beat k=8")
  }

  test("on an all-target graph every sample hits: F̂ = |E| exactly") {
    // complete graph labels cycle 1,2,3 — use (1,2)? Not all edges target.
    // Use a 2-node-label graph where every edge is a target instead.
    val star = TestGraphs.star(12) // center 1, leaves 2: every edge is (1,2)
    val out = NeighborSample.run(star, 1, 2, Seq(25), 50, new SplittableRandom(9))
    val hh = out(0)
    assert(hh == star.numEdges.toDouble)
  }

  test("LongSet size equals a HashSet's size under random adds with duplicates") {
    val rng = new SplittableRandom(11)
    // small keys (with 0), edge keys with high bits set, and arbitrary longs
    val pool = Array.tabulate(6000) { i =>
      i % 3 match {
        case 0 => (i / 3).toLong
        case 1 => CsrGraph.edgeKey(Int.MaxValue - rng.nextInt(1000), rng.nextInt(Int.MaxValue))
        case _ => rng.nextLong()
      }
    }
    val set = new LongSet
    val ref = mutable.HashSet.empty[Long]
    (1 to 10000).foreach { _ =>
      val key = pool(rng.nextInt(pool.length))
      set.add(key); ref += key
      assert(set.size == ref.size, s"after adding $key")
    }
    assert(ref.contains(0L) && ref.size > 2048, s"only ${ref.size} distinct keys") // crossed resizes
  }

  test("run equals a HashSet-based reference bit for bit") {
    // thousands of distinct target edges, so the set resizes many times
    val big = TestGraphs.connectedRandom(3000, 9000, seed = 72, nLabels = 2)
    def reference(seed: Long, checkpoints: Seq[Int]): Seq[(String, Int, Double)] = {
      val rng = new SplittableRandom(seed)
      val out = mutable.ArrayBuffer.empty[(String, Int, Double)]
      var u = Walks.burnIn(big, Walks.uniformStart(big, rng), 30, rng)
      var hits = 0L
      val distinct = mutable.HashSet.empty[Long]
      (1 to checkpoints.last).foreach { i =>
        val v = Walks.step(big, u, rng)
        if (big.isTargetEdge(u, v, 1, 2)) { hits += 1; distinct += CsrGraph.edgeKey(u, v) }
        u = v
        checkpoints.filter(_ == i).foreach { k =>
          // Eqs. 2 and 3, written out
          out += ((NeighborSample.HH, k, big.numEdges.toDouble * hits / k))
          out += ((NeighborSample.HT, k, distinct.size / (1.0 - math.pow(1.0 - 1.0 / big.numEdges, k.toDouble))))
        }
      }
      out.toSeq
    }
    val checkpoints = Seq(10, 500, 5000, 20000)
    (1 to 5).foreach { seed =>
      val got = NeighborSample.run(big, 1, 2, checkpoints, 30, new SplittableRandom(seed))
      val want = reference(seed, checkpoints)
      val (hh, ht) = want.partition(_._1 == NeighborSample.HH)
      assert(hh.map(_._2) == checkpoints && ht.map(_._2) == checkpoints, s"seed $seed")
      assert(got.toSeq.map(java.lang.Double.doubleToLongBits) ==
        (hh ++ ht).map(r => java.lang.Double.doubleToLongBits(r._3)), s"seed $seed")
      assert(got.last > 0.0)
    }
  }
}
