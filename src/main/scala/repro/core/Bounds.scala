package repro.core

import org.apache.spark.sql.DataFrame

/** Sample-size bounds of Theorems 4.1–4.5 for an (ε,δ)-approximation,
  * computed from exact graph statistics (Tables 18–22 use ε = δ = 0.1).
  *
  * Inputs: nV = |V|, nE = |E|, f = F (exact target count), and for the
  * NeighborExploration bounds the per-node arrays `degree` = d(u) and
  * `t` = T(u), indexed alike. π(u) = d(u)/2|E| is the stationary law of the
  * simple random walk.
  *
  * The Hansen-Hurwitz and re-weighted bounds (Theorems 4.1, 4.3, 4.5) are
  * one Chebyshev form over a named per-sample variance; the
  * Horvitz-Thompson bounds (Theorems 4.2, 4.4) are one inclusion form.
  */
object Bounds {

  final case class SampleBounds(nsHH: Double, nsHT: Double, neHH: Double,
                                neHT: Double, neRW: Double)

  /** Chebyshev: the mean of k i.i.d. samples with mean μ and variance σ² is
    * within εμ of μ with probability ≥ 1 − δ once k ≥ σ²/(ε²δμ²).
    */
  private def chebyshev(variance: Double, mu: Double, eps: Double, delta: Double): Double =
    variance / (eps * eps * delta * mu * mu)

  /** Horvitz-Thompson: k ≥ log((x²+B)/B) / −log(1−π) for a unit of value x
    * that one draw includes with probability π.
    */
  private def horvitzThompson(x: Double, b: Double, pi: Double): Double =
    math.log((x * x + b) / b) / -math.log(1.0 - pi)

  /** Variance of |E|·I(e) for e uniform over E (NS-HH, mean F): |E|F − F². */
  private def edgeIndicatorVariance(nE: Long, f: Long): Double =
    nE.toDouble * f - f.toDouble * f

  /** Variance of T(u)/π(u) for u ~ π (NE-HH, mean 2F):
    * Σ_u 2|E|·T(u)²/d(u) − 4F².
    */
  private def incidentCountVariance(degree: Array[Int], t: Array[Int], nE: Long, f: Long): Double =
    degree.indices.map(u => 2.0 * nE * t(u) * t(u) / degree(u)).sum - 4.0 * f * f

  /** Variance of 1/π(u) for u ~ π (NE-RW's weight sum, mean |V|):
    * Σ_u 2|E|/d(u) − |V|².
    */
  private def inverseProbabilityVariance(degree: Array[Int], nV: Long, nE: Long): Double =
    degree.map(d => 2.0 * nE / d).sum - nV.toDouble * nV

  /** All five bounds for one (dataset, label) — one row of Tables 18–22 —
    * from d(u) ≥ 1 and T(u) of every node, in arrays of equal length.
    *
    *  - NS-HH (4.1) and NE-HH (4.3): Chebyshev over the variances above.
    *  - NS-HT (4.2): x = I(e) = 1 at a target edge, π = 1/|E|,
    *    B = δε²F²/|E|.
    *  - NE-HT (4.4): the max over nodes of x = T(u), π = π(u),
    *    B = 4δε²F²/|V|.
    *  - NE-RW (4.5): 18 × the larger of the Chebyshev bounds for the
    *    numerator T(u)/π(u) and the denominator 1/π(u).
    */
  def fromCounts(degree: Array[Int], t: Array[Int], nV: Long, nE: Long, f: Long,
                 eps: Double = 0.1, delta: Double = 0.1): SampleBounds = {
    require(f > 0, s"every bound divides by F², so F must be positive, got $f")
    require(eps > 0 && eps < Double.PositiveInfinity && delta > 0 && delta < 1,
      s"need a finite eps > 0 and 0 < delta < 1, got eps = $eps, delta = $delta")
    require(degree.length == t.length, s"degree has ${degree.length} nodes but t has ${t.length}")
    require(degree.forall(_ >= 1), "the NeighborExploration bounds divide by d(u), so every degree must be >= 1")
    val neHH = chebyshev(incidentCountVariance(degree, t, nE, f), 2.0 * f, eps, delta)
    val neB = 4.0 * delta * eps * eps * f.toDouble * f / nV
    SampleBounds(
      nsHH = chebyshev(edgeIndicatorVariance(nE, f), f.toDouble, eps, delta),
      nsHT = horvitzThompson(1.0, delta * eps * eps * f.toDouble * f / nE, 1.0 / nE),
      neHH = neHH,
      neHT = degree.indices.map(u => horvitzThompson(t(u).toDouble, neB, degree(u) / (2.0 * nE))).max,
      neRW = 18.0 * math.max(neHH, chebyshev(inverseProbabilityVariance(degree, nV, nE), nV.toDouble, eps, delta)),
    )
  }

  /** [[fromCounts]] over an `incident` DataFrame carrying (degree: Long,
    * t: Long) per node.
    */
  def all(incident: DataFrame, nV: Long, nE: Long, f: Long,
          eps: Double = 0.1, delta: Double = 0.1): SampleBounds = {
    val rows = incident.select("degree", "t").collect()
    fromCounts(rows.map(_.getLong(0).toInt), rows.map(_.getLong(1).toInt), nV, nE, f, eps, delta)
  }
}
