package repro.exp

import org.apache.spark.storage.StorageLevel

import repro.{SparkSpec, TestGraphs}
import repro.core.GroundTruth

class DatasetsSpec extends SparkSpec {

  private lazy val gender = Datasets.build(spark, TinySpecs.gender)
  private lazy val zipf = Datasets.build(spark, TinySpecs.zipf)
  private lazy val deg = Datasets.build(spark, TinySpecs.deg)

  test("gender dataset: builds, is connected, ids contiguous") {
    val b = gender
    assert(b.nV > 100 && b.nV <= 400)
    assert(b.nE > b.nV - 1)
    val local = TestGraphs.edgeList(b.g)
    val comp = TestGraphs.unionFindComponents(b.g.numNodes, local)
    assert(comp.toSet.size == 1, "largest component must be connected")
  }

  test("gender dataset: pair is (1,2) with the exact ground-truth F") {
    val b = gender
    assert(b.pairs.size == 1)
    val p = b.pairs.head
    assert((p.t1, p.t2) == (1, 2))
    assert(p.f == GroundTruth.targetEdgeCount(b.edges, b.labels, 1, 2))
    assert(p.f == GroundTruth.targetEdgeCountLocal(b.g, 1, 2))
    assert(p.f > 0)
  }

  test("CSR graph and DataFrames agree on |V| and |E|") {
    val b = gender
    assert(b.edges.count() == b.nE)
    assert(b.labels.count() == b.nV)
    assert(b.degrees.count() == b.nV)
  }

  test("burn-in is a measured positive mixing time") {
    val b = gender
    assert(b.burnIn > 0 && b.burnIn <= 1000)
  }

  test("build is a pure function of its spec") {
    val a = gender
    val b = Datasets.build(spark, TinySpecs.gender)
    assert(a ne b)
    assert(a.edges.orderBy("src", "dst").collect().toSeq == b.edges.orderBy("src", "dst").collect().toSeq)
    assert(a.labels.orderBy("node").collect().toSeq == b.labels.orderBy("node").collect().toSeq)
    assert(a.burnIn == b.burnIn)
    assert(a.pairs == b.pairs)
  }

  test("the CSR graph does not depend on the shuffle partition count") {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    def csr(b: Datasets.Built) = Seq(b.g.offsets.toSeq, b.g.neighbors.toSeq, b.g.labels.toSeq)
    try Seq(TinySpecs.gender, TinySpecs.zipf, TinySpecs.deg).foreach { spec =>
      def under(partitions: String) = { spark.conf.set(key, partitions); csr(Datasets.build(spark, spec)) }
      assert(under("4") == under("64"), spec.name)
    } finally spark.conf.set(key, saved)
  }

  test("build leaves no DataFrame cached") {
    Seq(gender, zipf, deg).foreach { b =>
      assert(b.edges.storageLevel == StorageLevel.NONE, b.name)
      assert(b.labels.storageLevel == StorageLevel.NONE, b.name)
    }
  }

  test("specs with the same name and different seeds build different datasets") {
    val a = gender
    val b = Datasets.build(spark, TinySpecs.gender.copy(seed = TinySpecs.gender.seed + 1))
    assert(a.name == b.name)
    assert(TestGraphs.edgeList(a.g) != TestGraphs.edgeList(b.g))
  }

  test("Gender rejects a label-1 share outside (0, 1)") {
    Seq(0.0, 1.0, -0.2, 1.5, Double.NaN).foreach { frac1 =>
      intercept[IllegalArgumentException](Datasets.Gender(frac1))
    }
  }

  test("ZipfLocations rejects fewer than 2 labels") {
    Seq(1, 0, -3).foreach(nLabels => intercept[IllegalArgumentException](Datasets.ZipfLocations(nLabels, 0.8)))
  }

  test("ZipfLocations rejects an infinite exponent") {
    Seq(Double.PositiveInfinity, Double.NegativeInfinity).foreach { s =>
      intercept[IllegalArgumentException](Datasets.ZipfLocations(20, s))
    }
  }

  test("ZipfLocations rejects a NaN or singular exponent") {
    Seq(Double.NaN, 1.0).foreach(s => intercept[IllegalArgumentException](Datasets.ZipfLocations(20, s)))
  }

  test("Spec rejects fewer than 2 nodes") {
    Seq(1L, 0L, -5L).foreach(n => intercept[IllegalArgumentException](TinySpecs.gender.copy(n = n)))
  }

  test("Spec rejects no candidate edges") {
    Seq(0L, -1L).foreach(m => intercept[IllegalArgumentException](TinySpecs.gender.copy(candidateEdges = m)))
  }

  test("Spec rejects nPairs < 1") {
    Seq(0, -1).foreach(k => intercept[IllegalArgumentException](TinySpecs.gender.copy(nPairs = k)))
  }

  test("zipf dataset: pairs are ascending in F with distinct labels") {
    val b = zipf
    assert(b.pairs.size == 2)
    assert(b.pairs.map(_.f) == b.pairs.map(_.f).sorted)
    b.pairs.foreach { p =>
      assert(p.t1 != p.t2)
      assert(p.f >= TinySpecs.zipf.minPairCount, s"quartile pair must respect minCount: $p")
      assert(p.f == GroundTruth.targetEdgeCountLocal(b.g, p.t1, p.t2))
    }
  }

  test("degree dataset: label(u) = degree(u)") {
    val b = deg
    (0 until b.g.numNodes).foreach { u =>
      assert(b.g.label(u) == b.g.degree(u), s"node $u")
    }
  }

  test("degree-bucket dataset: selected pairs carry their exact counts") {
    val b = deg
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
    val picked = Datasets.quartilePairs(pairCounts, nPairs = 4, minCount = 20)
    // eligible counts: 20..40 (21 pairs); quartiles of 5,5,5,6 → medians
    assert(picked.map(_.f) == Seq(22L, 27L, 32L, 38L))
  }

  test("quartilePairs drops same-label pairs and rare pairs") {
    val pairCounts = Seq((1, 1, 100L), (1, 2, 5L), (2, 3, 30L), (3, 4, 40L))
    val picked = Datasets.quartilePairs(pairCounts, nPairs = 2, minCount = 20)
    assert(picked.map(p => (p.t1, p.t2)) == Seq((2, 3), (3, 4)))
  }

  test("quartilePairs fails loudly when too few pairs qualify") {
    val pairCounts = Seq((1, 2, 30L))
    intercept[IllegalArgumentException](
      Datasets.quartilePairs(pairCounts, nPairs = 4, minCount = 20))
  }

  test("quartilePairs rejects nPairs < 1") {
    val pairCounts = Seq((1, 2, 30L))
    Seq(0, -1).foreach { nPairs =>
      intercept[IllegalArgumentException](Datasets.quartilePairs(pairCounts, nPairs, minCount = 20))
    }
  }

  test("quartilePairs orders ties in count by (l1, l2), whatever the input order") {
    val ordered = Seq((1, 9, 50L), (2, 3, 50L), (2, 5, 50L), (2, 7, 50L), (3, 5, 50L), (4, 9, 50L),
                      (0, 9, 60L), (1, 2, 60L), (1, 8, 60L))
    val pairCounts = (5, 5, 50L) +: (1, 3, 10L) +: ordered.reverse
    val expected = ordered.map { case (l1, l2, cnt) => Datasets.LabelPair(l1, l2, cnt) }
    val rng = new scala.util.Random(7)
    (pairCounts +: Seq.fill(50)(rng.shuffle(pairCounts))).foreach { perm =>
      // one pair per part: the picks are the whole eligible order
      assert(Datasets.quartilePairs(perm, nPairs = 9, minCount = 20) == expected)
      assert(Datasets.quartilePairs(perm, nPairs = 2, minCount = 20) == Seq(expected(2), expected(6)))
    }
  }

  /** Entries in the session's cache manager; the count is `private[sql]`
    * in Scala but a public method of the class.
    */
  private def cachedEntries: Int = {
    val cm = spark.sharedState.cacheManager
    cm.getClass.getMethod("numCachedEntries").invoke(cm).asInstanceOf[Int]
  }

  test("a failed build leaves no DataFrame cached") {
    val before = cachedEntries
    val e = intercept[IllegalArgumentException](
      Datasets.build(spark, TinySpecs.zipf.copy(nPairs = 10000)))
    assert(e.getMessage.contains("eligible label pairs"))
    assert(cachedEntries <= before)
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
