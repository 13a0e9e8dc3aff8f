package repro.core

import java.util.SplittableRandom

import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Millis, Seconds, Span}

import repro.{SparkSpec, TestGraphs}
import repro.baselines.LineGraphWalks

class NrmseSpec extends SparkSpec {

  private lazy val g = TestGraphs.connectedRandom(40, 80, seed = 95, nLabels = 3)
  private lazy val f = TestGraphs.bruteForceF(g, 1, 2)

  test("AllAlgorithms lists the ten algorithms of paper Table 2") {
    assert(Nrmse.AllAlgorithms.size == 10)
    assert(Nrmse.AllAlgorithms.count(_.startsWith("NeighborSample")) == 2)
    assert(Nrmse.AllAlgorithms.count(_.startsWith("NeighborExploration")) == 3)
    assert(Nrmse.AllAlgorithms.count(_.startsWith("EX-")) == 5)
  }

  test("simulate emits every algorithm at every checkpoint") {
    val rows = Nrmse.simulate(g, 1, 2, Seq(10, 20), 50, seed = 1)
    assert(rows.length == Nrmse.AllAlgorithms.size * 2)
  }

  test("simulate's rows equal each walker's run on its own split stream, bit for bit") {
    def bits(est: Array[Double]) = est.toSeq.map(java.lang.Double.doubleToLongBits)
    for (cps <- Seq(Seq(10, 20), Seq(1, 5, 40)); seed <- 1L to 3L) {
      val nK = cps.size
      val got = Nrmse.simulate(g, 1, 2, cps, 50, seed)
      assert(got.length == 10 * nK)
      // n rows of the layout, starting at algorithm alg's
      def rows(alg: String, n: Int) = {
        val a = Nrmse.AllAlgorithms.indexOf(alg)
        got.slice(a * nK, (a + n) * nK)
      }
      val root = new SplittableRandom(seed)
      val clue = s"checkpoints $cps seed $seed"
      assert(bits(NeighborSample.run(g, 1, 2, cps, 50, root.split())) ==
        bits(rows(NeighborSample.HH, 2)), clue)
      assert(bits(NeighborExploration.run(g, 1, 2, cps, 50, root.split())) ==
        bits(rows(NeighborExploration.HH, 3)), clue)
      LineGraphWalks.defaultVariants.foreach { v =>
        assert(bits(LineGraphWalks.run(g, v, 1, 2, cps, 50, root.split())) ==
          bits(rows(v.name, 1)), s"${v.name} $clue")
      }
    }
  }

  test("simulateBatch row s equals simulate on seeds(s), bit for bit") {
    def bits(est: Array[Double]) = est.toSeq.map(java.lang.Double.doubleToLongBits)
    for (cps <- Seq(Seq(10, 20), Seq(1, 5, 40)); seeds <- Seq(Seq(3L), Seq(9L, 4L, 9L, 1000L, -7L))) {
      val got = Nrmse.simulateBatch(g, 1, 2, cps, 50, seeds.toArray)
      assert(got.length == seeds.size)
      seeds.zip(got).foreach { case (seed, row) =>
        assert(bits(row) == bits(Nrmse.simulate(g, 1, 2, cps, 50, seed)), s"checkpoints $cps seed $seed")
      }
    }
  }

  test("simulate is deterministic in the seed") {
    val a = Nrmse.simulate(g, 1, 2, Seq(10, 20), 50, seed = 7)
    val b = Nrmse.simulate(g, 1, 2, Seq(10, 20), 50, seed = 7)
    assert(a sameElements b)
  }

  test("estimates DataFrame has sims x algorithms x checkpoints rows") {
    val df = Nrmse.estimates(spark, g, 1, 2, Seq(10, 20), 50, sims = 8, seedBase = 3)
    assert(df.count() == 8L * 10 * 2)
    assert(df.select("sim").distinct().count() == 8)
  }

  test("nrmse of a constant-F estimate table is zero") {
    import spark.implicits._
    val df = Seq(("A", 10, 0, f.toDouble), ("A", 10, 1, f.toDouble))
      .toDF("algorithm", "k", "sim", "estimate")
    val out = Nrmse.nrmse(df, f).collect()
    assert(out.length == 1 && math.abs(out(0).getDouble(2)) < 1e-12)
  }

  test("nrmse matches the hand formula sqrt(E[(F̂-F)²])/F") {
    import spark.implicits._
    val ests = Seq(10.0, 14.0, 6.0)
    val df = ests.zipWithIndex.map { case (e, i) => ("A", 5, i, e) }
      .toDF("algorithm", "k", "sim", "estimate")
    val fRef = 8L
    val expected = math.sqrt(ests.map(e => (e - fRef) * (e - fRef)).sum / ests.size) / fRef
    val got = Nrmse.nrmse(df, fRef).head().getDouble(2)
    assert(math.abs(got - expected) < 1e-12)
  }

  test("run returns finite non-negative NRMSE for every algorithm and budget") {
    val out = Nrmse.run(spark, g, 1, 2, Seq(10, 30), 50, sims = 30, f = f, seedBase = 11)
    assert(out.keySet == Nrmse.AllAlgorithms.toSet)
    out.foreach { case (alg, m) =>
      assert(m.keySet == Set(10, 30), alg)
      m.values.foreach(v => assert(v >= 0 && java.lang.Double.isFinite(v), s"$alg $m"))
    }
  }

  test("run is reproducible for a fixed seedBase") {
    val a = Nrmse.run(spark, g, 1, 2, Seq(15), 50, sims = 12, f = f, seedBase = 21)
    val b = Nrmse.run(spark, g, 1, 2, Seq(15), 50, sims = 12, f = f, seedBase = 21)
    assert(a == b)
  }

  test("run equals a driver-side fold of simulate in simulation order, bit for bit") {
    val (cps, sims, seedBase) = (Seq(10, 25), 13, 5L)
    val sq = scala.collection.mutable.Map.empty[(String, Int), (Double, Int)]
    (0 until sims).foreach { s =>
      Nrmse.simulate(g, 1, 2, cps, 50, seedBase + s).zipWithIndex.foreach { case (est, c) =>
        val (alg, k) = (Nrmse.AllAlgorithms(c / cps.size), cps(c % cps.size))
        val (sum, n) = sq.getOrElse((alg, k), (0.0, 0))
        sq((alg, k)) = (sum + (est - f) * (est - f), n + 1)
      }
    }
    val expected = sq.toSeq
      .map { case ((alg, k), (sum, n)) => (alg, k, math.sqrt(sum / n) / f) }
      .groupBy(_._1).map { case (alg, cells) => alg -> cells.map(c => c._2 -> c._3).toMap }
    assert(Nrmse.run(spark, g, 1, 2, cps, 50, sims, f, seedBase) == expected)
  }

  test("estimates followed by nrmse equals run, bit for bit") {
    val (cps, sims, seedBase) = (Seq(10, 25), 13, 5L)
    val viaDf = Nrmse.nrmse(Nrmse.estimates(spark, g, 1, 2, cps, 50, sims, seedBase), f).collect()
      .map(r => (r.getString(0), r.getInt(1), java.lang.Double.doubleToLongBits(r.getDouble(2)))).toSet
    val viaRun = for ((alg, byK) <- Nrmse.run(spark, g, 1, 2, cps, 50, sims, f, seedBase).toSet; (k, v) <- byK)
      yield (alg, k, java.lang.Double.doubleToLongBits(v))
    assert(viaDf.size == 10 * cps.size && viaDf == viaRun)
  }

  test("run and estimates reject duplicate, descending or sub-1 checkpoints") {
    Seq(Seq(10, 10, 20), Seq(20, 10), Seq(0, 10), Seq(-5, 10), Seq.empty[Int]).foreach { cps =>
      intercept[IllegalArgumentException](Nrmse.run(spark, g, 1, 2, cps, 50, sims = 2, f = f))
      intercept[IllegalArgumentException](Nrmse.estimates(spark, g, 1, 2, cps, 50, sims = 2, seedBase = 1))
    }
  }

  test("run, estimates and a second run on one graph share one broadcast block") {
    // a graph of this test's own, so every block over its arrays is from these calls
    val graph = TestGraphs.connectedRandom(40, 80, seed = 95, nLabels = 3)
    Nrmse.run(spark, graph, 1, 2, Seq(10), 50, sims = 4, f = f, seedBase = 3)
    val first = broadcastsOfGraph(graph.neighbors)
    assert(first.size == 1)
    val df = Nrmse.estimates(spark, graph, 1, 2, Seq(10), 50, sims = 4, seedBase = 3)
    Nrmse.run(spark, graph, 1, 2, Seq(10, 20), 50, sims = 4, f = f, seedBase = 4)
    // the same broadcast, not a new one that replaced a collected first
    assert(broadcastsOfGraph(graph.neighbors) == first)
    assert(df.count() == 4L * 10)
  }

  test("a graph's broadcast is removed once the graph is garbage-collected") {
    var graph = TestGraphs.connectedRandom(40, 80, seed = 95, nLabels = 3)
    val neighbors = graph.neighbors
    Nrmse.run(spark, graph, 1, 2, Seq(10), 50, sims = 4, f = f, seedBase = 3)
    assert(broadcastsOfGraph(neighbors).size == 1)
    graph = null
    // Spark's ContextCleaner removes a broadcast whose handle was collected
    eventually(timeout(Span(30, Seconds)), interval(Span(200, Millis))) {
      System.gc()
      assert(broadcastsOfGraph(neighbors).isEmpty)
    }
  }

  test("run and estimates reject sims = 0") {
    intercept[IllegalArgumentException](Nrmse.run(spark, g, 1, 2, Seq(10), 50, sims = 0, f = f))
    intercept[IllegalArgumentException](Nrmse.estimates(spark, g, 1, 2, Seq(10), 50, sims = 0, seedBase = 1))
  }

  test("run and estimates reject a negative burn-in") {
    intercept[IllegalArgumentException](Nrmse.run(spark, g, 1, 2, Seq(10), -1, sims = 2, f = f))
    intercept[IllegalArgumentException](Nrmse.estimates(spark, g, 1, 2, Seq(10), -1, sims = 2, seedBase = 1))
  }

  test("run and nrmse reject F = 0 (NRMSE divides by F)") {
    import spark.implicits._
    intercept[IllegalArgumentException](Nrmse.run(spark, g, 1, 2, Seq(10), 50, sims = 2, f = 0))
    val df = Seq(("A", 10, 0, 1.0)).toDF("algorithm", "k", "sim", "estimate")
    intercept[IllegalArgumentException](Nrmse.nrmse(df, 0))
  }

  test("NS-HH NRMSE decreases substantially from tiny to large budgets") {
    val out = Nrmse.run(spark, g, 1, 2, Seq(5, 400), 100, sims = 60, f = f, seedBase = 31)
    val m = out(NeighborSample.HH)
    assert(m(400) < m(5), s"expected improvement with budget: $m")
  }

  test("paperCheckpoints spans 0.5% to 5% of |V| in ten steps") {
    assert(Nrmse.paperCheckpoints(4000) == Seq(20, 40, 60, 80, 100, 120, 140, 160, 180, 200))
    assert(Nrmse.paperCheckpoints(1000).head == 5)
    val tiny = Nrmse.paperCheckpoints(10) // duplicates collapse, stays ascending
    assert(tiny == tiny.sorted && tiny.distinct == tiny && tiny.nonEmpty)
  }

  test("paperCheckpoints is the exact integer ceiling of j·|V|/200 for every |V| up to 200,000") {
    for (nV <- 1L to 200000L) {
      val exact = (1 to 10).map(j => -Math.floorDiv(-nV * j, 200L)).distinct
      assert(Nrmse.paperCheckpoints(nV) == exact, s"|V| = $nV")
    }
    // 140·0.005·10 is 7.000000000000001 in floating point
    assert(Nrmse.paperCheckpoints(140).last == 7)
  }

  test("paperCheckpoints rejects |V| < 1") {
    Seq(0L, -5L).foreach(nV => intercept[IllegalArgumentException](Nrmse.paperCheckpoints(nV)))
  }
}
