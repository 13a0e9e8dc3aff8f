package repro.exp

import repro.{SparkSpec, TestGraphs}
import repro.core.GroundTruth

class DatasetsSpec extends SparkSpec {
  import spark.implicits._

  test("gender dataset: builds, is connected, ids contiguous") {
    val b = Datasets.build(spark, TinySpecs.gender)
    assert(b.nV > 100 && b.nV <= 400)
    assert(b.nE > b.nV - 1)
    val local = TestGraphs.edgeList(b.g)
    val comp = TestGraphs.unionFindComponents(b.g.numNodes, local)
    assert(comp.toSet.size == 1, "largest component must be connected")
  }

  test("gender dataset: pair is (1,2) with the exact ground-truth F") {
    val b = Datasets.build(spark, TinySpecs.gender)
    assert(b.pairs.size == 1)
    val p = b.pairs.head
    assert((p.t1, p.t2) == (1, 2))
    assert(p.f == GroundTruth.targetEdgeCount(b.edges, b.labels, 1, 2))
    assert(p.f == GroundTruth.targetEdgeCountLocal(b.g, 1, 2))
    assert(p.f > 0)
  }

  test("CSR graph and DataFrames agree on |V| and |E|") {
    val b = Datasets.build(spark, TinySpecs.gender)
    assert(b.edges.count() == b.nE)
    assert(b.labels.count() == b.nV)
    assert(b.degrees.count() == b.nV)
  }

  test("burn-in is a measured positive mixing time") {
    val b = Datasets.build(spark, TinySpecs.gender)
    assert(b.burnIn > 0 && b.burnIn <= 1000)
  }

  test("build is cached by spec") {
    val a = Datasets.build(spark, TinySpecs.gender)
    val b = Datasets.build(spark, TinySpecs.gender)
    assert(a eq b)
  }

  test("specs with the same name and different seeds build different datasets") {
    val a = Datasets.build(spark, TinySpecs.gender)
    val b = Datasets.build(spark, TinySpecs.gender.copy(seed = TinySpecs.gender.seed + 1))
    assert(a.name == b.name)
    assert(TestGraphs.edgeList(a.g) != TestGraphs.edgeList(b.g))
  }

  test("Gender rejects a label-1 share outside (0, 1)") {
    Seq(0.0, 1.0, -0.2, 1.5, Double.NaN).foreach { frac1 =>
      intercept[IllegalArgumentException](Datasets.Gender(frac1))
    }
  }

  test("zipf dataset: pairs are ascending in F with distinct labels") {
    val b = Datasets.build(spark, TinySpecs.zipf)
    assert(b.pairs.size == 2)
    assert(b.pairs.map(_.f) == b.pairs.map(_.f).sorted)
    b.pairs.foreach { p =>
      assert(p.t1 != p.t2)
      assert(p.f >= TinySpecs.zipf.minPairCount, s"quartile pair must respect minCount: $p")
      assert(p.f == GroundTruth.targetEdgeCountLocal(b.g, p.t1, p.t2))
    }
  }

  test("degree dataset: label(u) = degree(u)") {
    val b = Datasets.build(spark, TinySpecs.deg)
    (0 until b.g.numNodes).foreach { u =>
      assert(b.g.label(u) == b.g.degree(u), s"node $u")
    }
  }

  test("degree-bucket dataset: selected pairs carry their exact counts") {
    val b = Datasets.build(spark, TinySpecs.deg)
    b.pairs.foreach { p =>
      assert(p.f == GroundTruth.targetEdgeCountLocal(b.g, p.t1, p.t2), s"$p")
    }
  }

  test("pct reports the relative target count") {
    val p = Datasets.LabelPair(1, 2, 50)
    assert(math.abs(p.pct(1000) - 5.0) < 1e-12)
  }

  test("quartilePairs picks the median of each ascending quartile") {
    val pairCounts = (1 to 40).map(i => (1, i + 1, i.toLong))
      .toDF("l1", "l2", "cnt")
    val picked = Datasets.quartilePairs(pairCounts, nPairs = 4, minCount = 20)
    // eligible counts: 20..40 (21 pairs); quartiles of 5,5,5,6 → medians
    assert(picked.map(_.f) == Seq(22L, 27L, 32L, 38L))
  }

  test("quartilePairs drops same-label pairs and rare pairs") {
    val pairCounts = Seq((1, 1, 100L), (1, 2, 5L), (2, 3, 30L), (3, 4, 40L))
      .toDF("l1", "l2", "cnt")
    val picked = Datasets.quartilePairs(pairCounts, nPairs = 2, minCount = 20)
    assert(picked.map(p => (p.t1, p.t2)) == Seq((2, 3), (3, 4)))
  }

  test("quartilePairs fails loudly when too few pairs qualify") {
    val pairCounts = Seq((1, 2, 30L)).toDF("l1", "l2", "cnt")
    intercept[IllegalArgumentException](
      Datasets.quartilePairs(pairCounts, nPairs = 4, minCount = 20))
  }

  test("quartilePairs rejects nPairs < 1") {
    val pairCounts = Seq((1, 2, 30L)).toDF("l1", "l2", "cnt")
    Seq(0, -1).foreach { nPairs =>
      intercept[IllegalArgumentException](Datasets.quartilePairs(pairCounts, nPairs, minCount = 20))
    }
  }

  test("the five experiment specs are wired to the expected schemes") {
    assert(Datasets.all.map(_.name) == Seq("facebook-lite", "gplus-lite", "pokec-lite",
                                           "orkut-lite", "livejournal-lite"))
    assert(Datasets.facebook.nPairs == 1 && Datasets.pokec.nPairs == 4)
    assert(Datasets.facebook.scheme.isInstanceOf[Datasets.Gender])
    assert(Datasets.pokec.scheme.isInstanceOf[Datasets.ZipfLocations])
    assert(Datasets.orkut.scheme == Datasets.DegreeBuckets)
  }
}
