package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.SparkSpec

class EstimatorsSpec extends SparkSpec {

  private def samples[A](gen: Gen[A], n: Int, seed: Long): Seq[A] =
    (0 until n).map(i => gen.pureApply(Gen.Parameters.default, Seed(seed * 1000 + i)))

  test("htInclusionProb: exact values") {
    assert(Estimators.htInclusionProb(1.0, 5) == 1.0)
    assert(math.abs(Estimators.htInclusionProb(0.5, 1) - 0.5) < 1e-12)
    assert(math.abs(Estimators.htInclusionProb(0.5, 2) - 0.75) < 1e-12)
  }

  test("htInclusionProb is monotone in k and bounded by 1") {
    for (p <- samples(Gen.choose(1e-6, 0.99), 50, 1)) {
      var prev = 0.0
      for (k <- 1 to 30) {
        val cur = Estimators.htInclusionProb(p, k)
        assert(cur >= prev && cur <= 1.0, s"p=$p k=$k")
        prev = cur
      }
    }
  }

  test("hansenHurwitz for NS-HH: |E|·hits/k") {
    assert(Estimators.hansenHurwitz(10, 3.0, 5) == 6.0)
    assert(Estimators.hansenHurwitz(100, 0.0, 7) == 0.0)
  }

  test("nsHorvitzThompson: distinct/(1-(1-1/|E|)^k)") {
    val e = 50L; val k = 10
    val expected = 4 / (1.0 - math.pow(1.0 - 1.0 / e, k))
    assert(math.abs(Estimators.nsHorvitzThompson(e, 4, k) - expected) < 1e-9)
  }

  test("nsHorvitzThompson recovers F exactly when k -> inf and all targets seen") {
    // inclusion probability -> 1, so the estimate equals the distinct count
    assert(math.abs(Estimators.nsHorvitzThompson(100, 17, 1000000) - 17.0) < 1e-6)
  }

  test("hansenHurwitz for NE-HH: |E|·sum/k") {
    assert(Estimators.hansenHurwitz(20, 1.5, 3) == 10.0)
  }

  test("neHorvitzThompson: hand-computed two-node case") {
    val nE = 10L; val k = 4
    val (t, d) = (Array(2, 1, 7), Array(5, 2, 9)) // slot 2 lies past n = 2
    val expected = 0.5 * (
      2 / (1 - math.pow(1 - 5 / 20.0, k)) +
      1 / (1 - math.pow(1 - 2 / 20.0, k)))
    assert(math.abs(Estimators.neHorvitzThompson(nE, t, d, 2, k) - expected) < 1e-9)
  }

  test("reweighted for NE-RW: |V|·sumT/(2·sumInv)") {
    assert(Estimators.reweighted(100, 0.5, 2.0 * 5.0) == 5.0)
  }

  test("reweighted for the EX chains: population·weighted hits/weights") {
    assert(Estimators.reweighted(200, 1.0, 4.0) == 50.0)
  }

  test("reweighted with unit weights: population·hits/k") {
    assert(Estimators.reweighted(100, 25.0, 50.0) == 50.0)
  }

  test("reweighted with unit weights is bit-equal to the plain average |E|·hits/k") {
    // sums of 1.0 are exact integers below 2^53, so the uniform EX chains'
    // ratio is their plain average, bit for bit
    val gen = for {
      k <- Gen.choose(1, 1000000)
      hits <- Gen.choose(0, k)
      population <- Gen.choose(1L, 100000000L)
    } yield (population, hits, k)
    for ((population, hits, k) <- samples(gen, 2000, 3)) {
      val want = population.toDouble * hits / k
      assert(java.lang.Double.doubleToRawLongBits(Estimators.reweighted(population, hits.toDouble, k.toDouble)) ==
             java.lang.Double.doubleToRawLongBits(want), s"p=$population hits=$hits k=$k")
    }
  }

  test("estimators are homogeneous in the population size") {
    for (scale <- samples(Gen.choose(1L, 1000L), 40, 2)) {
      assert(Estimators.hansenHurwitz(scale * 10, 3.0, 5) ==
             scale * Estimators.hansenHurwitz(10, 3.0, 5))
      assert(Estimators.reweighted(scale * 10, 3.0, 5.0) ==
             scale * Estimators.reweighted(10, 3.0, 5.0))
    }
  }

  test("NS-HH is exactly unbiased under uniform edge sampling (enumeration)") {
    // E[F̂] = Σ_e (1/|E|)·|E|·I(e) = F for k = 1, and by linearity for any k.
    val g = repro.TestGraphs.connectedRandom(15, 25, seed = 61)
    val f = repro.TestGraphs.bruteForceF(g, 1, 2)
    val mean = repro.TestGraphs.edgeList(g).map { case (u, v) =>
      Estimators.hansenHurwitz(g.numEdges, if (g.isTargetEdge(u, v, 1, 2)) 1.0 else 0.0, 1)
    }.sum / g.numEdges
    assert(math.abs(mean - f) < 1e-9)
  }

  test("NE-HH is exactly unbiased under stationary node sampling (enumeration)") {
    // E[F̂] = Σ_u π(u)·|E|·T(u)/d(u) = Σ_u T(u)/2 = F for k = 1.
    val g = repro.TestGraphs.connectedRandom(15, 25, seed = 62)
    val f = repro.TestGraphs.bruteForceF(g, 1, 2)
    val mean = (0 until g.numNodes).map { u =>
      val pi = g.degree(u) / (2.0 * g.numEdges)
      pi * Estimators.hansenHurwitz(g.numEdges, g.targetEdgesAt(u, 1, 2).toDouble / g.degree(u), 1)
    }.sum
    assert(math.abs(mean - f) < 1e-9)
  }
}
