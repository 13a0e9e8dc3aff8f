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
    intercept[IllegalArgumentException](
      NeighborSample.run(g, 1, 2, Seq(10, 5), 10, new SplittableRandom(1)))
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

  test("HT is close to unbiased: mean over sims within 15% of F") {
    val sims = 600
    val mean = (1 to sims).map { s =>
      NeighborSample.run(g, 1, 2, Seq(40), 150, new SplittableRandom(5000 + s))(1)
    }.sum / sims
    assert(math.abs(mean - f) < 0.15 * f, s"mean=$mean F=$f")
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
          out += ((NeighborSample.HH, k, Estimators.nsHansenHurwitz(big.numEdges, hits, k)))
          out += ((NeighborSample.HT, k, Estimators.nsHorvitzThompson(big.numEdges, distinct.size, k)))
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
