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
