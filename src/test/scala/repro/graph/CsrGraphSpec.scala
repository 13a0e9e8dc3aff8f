package repro.graph

import java.util.SplittableRandom

import repro.{SparkSpec, TestGraphs}

class CsrGraphSpec extends SparkSpec {

  test("fromEdges: degrees match incident edge counts") {
    val g = TestGraphs.connectedRandom(40, 60, seed = 1)
    val es = TestGraphs.edgeList(g)
    (0 until g.numNodes).foreach { u =>
      val expected = es.count { case (a, b) => a == u || b == u }
      assert(g.degree(u) == expected, s"degree of $u")
    }
  }

  test("fromEdges: neighbor lists are symmetric") {
    val g = TestGraphs.connectedRandom(30, 40, seed = 2)
    (0 until g.numNodes).foreach { u =>
      (0 until g.degree(u)).foreach { i =>
        val v = g.neighbor(u, i)
        assert((0 until g.degree(v)).exists(j => g.neighbor(v, j) == u), s"($u,$v)")
      }
    }
  }

  test("fromEdges: friend lists are ascending") {
    val g = TestGraphs.connectedRandom(40, 90, seed = 6)
    (0 until g.numNodes).foreach { u =>
      val list = (0 until g.degree(u)).map(g.neighbor(u, _))
      assert(list == list.sorted, s"friend list of $u")
    }
  }

  test("fromEdges gives the same graph for any order and orientation of its edges") {
    val g = TestGraphs.connectedRandom(40, 90, seed = 8)
    val es = TestGraphs.edgeList(g)
    val labels = (0 until g.numNodes).map(u => u -> g.label(u))
    val rng = new SplittableRandom(9)
    (1 to 20).foreach { trial =>
      val shuffled = new scala.util.Random(trial).shuffle(es)
        .map { case (u, v) => if (rng.nextBoolean()) (v, u) else (u, v) }
      val h = CsrGraph.fromEdges(g.numNodes, shuffled, labels.reverse)
      assert(h.offsets.toSeq == g.offsets.toSeq && h.neighbors.toSeq == g.neighbors.toSeq &&
        h.labels.toSeq == g.labels.toSeq, s"trial $trial")
    }
  }

  test("numNodes and numEdges are consistent with input") {
    val g = TestGraphs.connectedRandom(25, 30, seed = 3)
    assert(g.numNodes == 25)
    assert(g.numEdges == TestGraphs.edgeList(g).size.toLong)
    assert(g.neighbors.length.toLong == 2 * g.numEdges)
  }

  test("labels default to 0 when not listed") {
    val g = CsrGraph.fromEdges(3, Seq((0, 1), (1, 2)), Seq(1 -> 7))
    assert(g.label(0) == 0 && g.label(1) == 7 && g.label(2) == 0)
  }

  test("fromEdges rejects self-loops and out-of-range nodes") {
    intercept[IllegalArgumentException](CsrGraph.fromEdges(3, Seq((1, 1))))
    intercept[IllegalArgumentException](CsrGraph.fromEdges(2, Seq((0, 5))))
  }

  test("edgeKey is injective over distinct unordered pairs") {
    val pairs = for { u <- 0 until 50; v <- u + 1 until 50 } yield (u, v)
    val keys = pairs.map { case (u, v) => CsrGraph.edgeKey(u, v) }
    assert(keys.distinct.size == pairs.size)
  }

  test("edgeKey is orientation-invariant") {
    val rng = new SplittableRandom(7)
    (1 to 500).foreach { _ =>
      val u = rng.nextInt(1 << 20); val v = rng.nextInt(1 << 20)
      assert(CsrGraph.edgeKey(u, v) == CsrGraph.edgeKey(v, u))
    }
  }

  test("isTargetEdge matches label definition, both orientations") {
    val g = TestGraphs.triangle // labels 1,2,3
    assert(g.isTargetEdge(0, 1, 1, 2) && g.isTargetEdge(1, 0, 1, 2))
    assert(g.isTargetEdge(0, 1, 2, 1))
    assert(!g.isTargetEdge(0, 2, 1, 2)) // labels (1,3)
    assert(g.isTargetEdge(1, 2, 2, 3))
  }

  test("isTargetEdge with t1 == t2 requires both endpoints labeled t1") {
    val g = CsrGraph.fromEdges(3, Seq((0, 1), (1, 2)), Seq(0 -> 5, 1 -> 5, 2 -> 6))
    assert(g.isTargetEdge(0, 1, 5, 5))
    assert(!g.isTargetEdge(1, 2, 5, 5))
  }

  test("targetEdgesAt matches brute force on random graphs") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.connectedRandom(30, 50, seed, nLabels = 3)
      val es = TestGraphs.edgeList(g)
      for (u <- 0 until g.numNodes; t1 <- 1 to 3; t2 <- 1 to 3) {
        val expected = es.count { case (a, b) =>
          (a == u || b == u) && g.isTargetEdge(a, b, t1, t2)
        }
        assert(g.targetEdgesAt(u, t1, t2) == expected, s"T($u) for ($t1,$t2) seed=$seed")
      }
    }
  }

  test("sum of targetEdgesAt over nodes equals 2F") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.connectedRandom(40, 80, seed, nLabels = 4)
      for (t1 <- 1 to 4; t2 <- t1 to 4) {
        val sumT = (0 until g.numNodes).map(g.targetEdgesAt(_, t1, t2).toLong).sum
        assert(sumT == 2 * TestGraphs.bruteForceF(g, t1, t2), s"($t1,$t2) seed=$seed")
      }
    }
  }

  test("maxDegree and maxLineDegree match brute force") {
    val g = TestGraphs.connectedRandom(30, 60, seed = 9)
    assert(g.maxDegree == (0 until g.numNodes).map(g.degree).max)
    val expected = TestGraphs.edgeList(g)
      .map { case (u, v) => g.degree(u) + g.degree(v) - 2 }.max
    assert(g.maxLineDegree == expected)
  }

  test("star graph shapes: center degree n-1, line degree n-2") {
    val g = TestGraphs.star(10)
    assert(g.degree(0) == 9)
    assert((1 until 10).forall(g.degree(_) == 1))
    assert(g.maxLineDegree == 8)
  }

  test("fromDataFrames equals fromEdges on the same graph") {
    val g = TestGraphs.connectedRandom(25, 35, seed = 4)
    val g2 = CsrGraph.fromDataFrames(
      TestGraphs.edgesDf(spark, g), TestGraphs.labelsDf(spark, g))
    assert(g2.numNodes == g.numNodes && g2.numEdges == g.numEdges)
    (0 until g.numNodes).foreach { u =>
      assert(g2.degree(u) == g.degree(u))
      assert(g2.label(u) == g.label(u))
      assert((0 until g.degree(u)).map(g2.neighbor(u, _)).sorted ==
             (0 until g.degree(u)).map(g.neighbor(u, _)).sorted)
    }
  }

  test("fromDataFrames rejects an empty graph with an error that names the cause") {
    import spark.implicits._
    val err = intercept[IllegalArgumentException](CsrGraph.fromDataFrames(
      Seq.empty[(Long, Long)].toDF("src", "dst"), Seq.empty[(Long, Int)].toDF("node", "label")))
    assert(err.getMessage.contains("label DataFrame is empty"), err.getMessage)
  }

  test("CsrGraph survives java serialization (broadcast requirement)") {
    val g = TestGraphs.connectedRandom(20, 25, seed = 5)
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(g)
    val g2 = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[CsrGraph]
    assert(g2.numNodes == g.numNodes && g2.numEdges == g.numEdges)
    assert(g2.labels.toSeq == g.labels.toSeq)
  }
}
