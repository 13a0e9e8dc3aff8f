package repro.core

import repro.{SparkSpec, TestGraphs}

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
    assert(rows.size == 10 * 2)
    assert(rows.map(_._1).toSet == Nrmse.AllAlgorithms.toSet)
  }

  test("simulate is deterministic in the seed") {
    val a = Nrmse.simulate(g, 1, 2, Seq(10, 20), 50, seed = 7)
    val b = Nrmse.simulate(g, 1, 2, Seq(10, 20), 50, seed = 7)
    assert(a == b)
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
      Nrmse.simulate(g, 1, 2, cps, 50, seedBase + s).foreach { case (alg, k, est) =>
        val (sum, n) = sq.getOrElse((alg, k), (0.0, 0))
        sq((alg, k)) = (sum + (est - f) * (est - f), n + 1)
      }
    }
    val expected = sq.toSeq
      .map { case ((alg, k), (sum, n)) => (alg, k, math.sqrt(sum / n) / f) }
      .groupBy(_._1).map { case (alg, cells) => alg -> cells.map(c => c._2 -> c._3).toMap }
    assert(Nrmse.run(spark, g, 1, 2, cps, 50, sims, f, seedBase) == expected)
  }

  test("run and estimates reject sims = 0") {
    intercept[IllegalArgumentException](Nrmse.run(spark, g, 1, 2, Seq(10), 50, sims = 0, f = f))
    intercept[IllegalArgumentException](Nrmse.estimates(spark, g, 1, 2, Seq(10), 50, sims = 0, seedBase = 1))
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
}
