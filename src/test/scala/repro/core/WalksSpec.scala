package repro.core

import java.util.SplittableRandom

import repro.{SparkSpec, TestGraphs}
import repro.graph.CsrGraph

class WalksSpec extends SparkSpec {

  /** The post-burn-in node trace u_0 .. u_k (u_0 is the burned-in start;
    * the k sampled positions are u_1..u_k). The estimators stream over
    * steps without materializing traces.
    */
  private def trace(g: CsrGraph, start: Int, burnInSteps: Int, k: Int,
                    rng: SplittableRandom): Array[Int] = {
    val out = new Array[Int](k + 1)
    out(0) = Walks.burnIn(g, start, burnInSteps, rng)
    var i = 1
    while (i <= k) { out(i) = Walks.step(g, out(i - 1), rng); i += 1 }
    out
  }

  private val bounds = Seq(1, 2, 3, 7, 1000, Int.MaxValue)

  test("below stays in [0, b) and returns 0 for b = 1") {
    val rng = new SplittableRandom(21)
    bounds.foreach { b =>
      (1 to 20000).foreach { _ =>
        val x = Walks.below(rng, b)
        assert(x >= 0 && x < b, s"bound $b drew $x")
        if (b == 1) assert(x == 0)
      }
    }
  }

  test("below rejects a bound below 1") {
    Seq(0, -1, Int.MinValue).foreach { b =>
      intercept[IllegalArgumentException](Walks.below(new SplittableRandom(1), b))
    }
  }

  test("below is Lemire's multiply-shift on nextInt(), redraws included") {
    // 2³² mod 1431655766 = 1431655764: about a third of the draws at that bound redraw
    val two32 = BigInt(1) << 32
    (bounds :+ 1431655766).foreach { b =>
      val (rng, ref) = (new SplittableRandom(b.toLong), new SplittableRandom(b.toLong))
      (1 to 5000).foreach { i =>
        var m = BigInt(ref.nextInt() & 0xFFFFFFFFL) * b
        while (m % two32 < two32 % b) m = BigInt(ref.nextInt() & 0xFFFFFFFFL) * b
        assert(Walks.below(rng, b) == (m / two32).toInt, s"bound $b draw $i")
      }
    }
  }

  test("below passes a chi-square test at b = 7 and b = 1000 over 10^6 draws") {
    // thresholds fixed up front: the Wilson-Hilferty 5σ quantiles of χ²(b − 1),
    // an upper tail of about 3·10⁻⁷
    Seq(7 -> 42.81, 1000 -> 1238.81).foreach { case (b, threshold) =>
      val rng = new SplittableRandom(b + 17L)
      val n = 1000000
      val counts = new Array[Long](b)
      (1 to n).foreach(_ => counts(Walks.below(rng, b)) += 1)
      val expected = n.toDouble / b
      val chi2 = counts.map(c => (c - expected) * (c - expected) / expected).sum
      assert(chi2 < threshold, s"bound $b: chi-square $chi2")
    }
  }

  test("step always moves to an adjacent node") {
    val g = TestGraphs.connectedRandom(30, 45, seed = 31)
    val rng = new SplittableRandom(1)
    var u = 5
    (1 to 2000).foreach { _ =>
      val v = Walks.step(g, u, rng)
      assert((0 until g.degree(u)).exists(g.neighbor(u, _) == v), s"$u -> $v")
      u = v
    }
  }

  test("long-run visit frequencies match the stationary distribution d(u)/2|E|") {
    val g = TestGraphs.connectedRandom(25, 60, seed = 32)
    val rng = new SplittableRandom(2)
    val counts = new Array[Long](g.numNodes)
    var u = Walks.burnIn(g, 0, 500, rng)
    val n = 400000
    (1 to n).foreach { _ => u = Walks.step(g, u, rng); counts(u) += 1 }
    val twoE = 2.0 * g.numEdges
    (0 until g.numNodes).foreach { v =>
      val expected = n * g.degree(v) / twoE
      assert(math.abs(counts(v) - expected) < 0.1 * expected + 5 * math.sqrt(expected),
        s"node $v: ${counts(v)} vs $expected")
    }
  }

  test("edges traversed by the walk are uniform over E (NeighborSample premise)") {
    val g = TestGraphs.connectedRandom(12, 20, seed = 33)
    val rng = new SplittableRandom(3)
    val counts = scala.collection.mutable.Map.empty[Long, Long].withDefaultValue(0L)
    var u = Walks.burnIn(g, 0, 500, rng)
    val n = 400000
    (1 to n).foreach { _ =>
      val v = Walks.step(g, u, rng)
      counts(CsrGraph.edgeKey(u, v)) += 1
      u = v
    }
    assert(counts.size.toLong == g.numEdges, "every edge must be reachable")
    val expected = n.toDouble / g.numEdges
    counts.values.foreach { c =>
      assert(math.abs(c - expected) < 0.08 * expected + 5 * math.sqrt(expected),
        s"$c vs $expected")
    }
  }

  test("trace has the requested length and consecutive nodes are adjacent") {
    val g = TestGraphs.connectedRandom(20, 30, seed = 34)
    val tr = trace(g, 0, burnInSteps = 100, k = 50, new SplittableRandom(4))
    assert(tr.length == 51)
    tr.zip(tr.tail).foreach { case (a, b) =>
      assert((0 until g.degree(a)).exists(g.neighbor(a, _) == b))
    }
  }

  test("walks are deterministic in the seed") {
    val g = TestGraphs.connectedRandom(20, 30, seed = 35)
    val a = trace(g, 0, 10, 40, new SplittableRandom(5)).toSeq
    val b = trace(g, 0, 10, 40, new SplittableRandom(5)).toSeq
    val c = trace(g, 0, 10, 40, new SplittableRandom(6)).toSeq
    assert(a == b)
    assert(a != c)
  }

  test("uniformStart covers the node range") {
    val g = TestGraphs.connectedRandom(10, 15, seed = 36)
    val rng = new SplittableRandom(7)
    val starts = (1 to 2000).map(_ => Walks.uniformStart(g, rng)).toSet
    assert(starts == (0 until 10).toSet)
  }

  test("burnIn(0 steps) returns the start node") {
    val g = TestGraphs.triangle
    assert(Walks.burnIn(g, 2, 0, new SplittableRandom(8)) == 2)
  }
}
