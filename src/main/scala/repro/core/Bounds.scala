package repro.core

import org.apache.spark.sql.DataFrame

/** Sample-size bounds of Theorems 4.1–4.5 for an (ε,δ)-approximation,
  * computed from exact graph statistics (Tables 18–22 use ε = δ = 0.1).
  *
  * Inputs: nV = |V|, nE = |E|, f = F (exact target count), and for the
  * NeighborExploration bounds the per-node arrays `degree` = d(u) and
  * `t` = T(u), indexed alike.
  */
object Bounds {

  final case class SampleBounds(nsHH: Double, nsHT: Double, neHH: Double,
                                neHT: Double, neRW: Double)

  /** Theorem 4.1 — NeighborSample-HH:
    * k ≥ (Σ_{X∈E} |E|·I(X) − F²) / (ε²F²δ) = (|E|F − F²)/(ε²F²δ).
    */
  def nsHansenHurwitz(nE: Long, f: Long, eps: Double, delta: Double): Double =
    (nE.toDouble * f - f.toDouble * f) / (eps * eps * f.toDouble * f * delta)

  /** Theorem 4.2 — NeighborSample-HT:
    * k ≥ max_e log((I(e)²+B)/B) / log(1/A), A = 1−1/|E|, B = δε²F²/|E|.
    * The max is attained at any target edge (I=1).
    */
  def nsHorvitzThompson(nE: Long, f: Long, eps: Double, delta: Double): Double = {
    val a = 1.0 - 1.0 / nE
    val b = delta * eps * eps * f.toDouble * f / nE
    math.log((1.0 + b) / b) / math.log(1.0 / a)
  }

  /** Σ_u 2|E|·T(u)²/d(u) = Σ_u T(u)²/π_u, π_u = d(u)/2|E|. */
  private def sumTSquaredOverPi(degree: Array[Int], t: Array[Int], nE: Long): Double =
    degree.indices.map(u => 2.0 * nE * t(u) * t(u) / degree(u)).sum

  /** Theorem 4.3 — NeighborExploration-HH:
    * k ≥ (Σ_u 2|E|T(u)²/d(u) − 4F²) / (4ε²F²δ).
    */
  def neHansenHurwitz(degree: Array[Int], t: Array[Int], nE: Long, f: Long,
                      eps: Double, delta: Double): Double =
    (sumTSquaredOverPi(degree, t, nE) - 4.0 * f * f) / (4.0 * eps * eps * f.toDouble * f * delta)

  /** Theorem 4.4 — NeighborExploration-HT:
    * k ≥ max_y log((T(y)²+B)/B) / log(1/A(y)),
    * A(y) = 1 − d(y)/2|E|, B = 4δε²F²/|V|.
    */
  def neHorvitzThompson(degree: Array[Int], t: Array[Int], nV: Long, nE: Long, f: Long,
                        eps: Double, delta: Double): Double = {
    val b = 4.0 * delta * eps * eps * f.toDouble * f / nV
    degree.indices.map { u =>
      math.log((t(u).toDouble * t(u) + b) / b) / -math.log(1.0 - degree(u) / (2.0 * nE))
    }.max
  }

  /** Theorem 4.5 — NeighborExploration-RW:
    * k ≥ max{ 18(Σ_y T(y)²/π_y − 4F²)/(4ε²F²δ),
    *          18(Σ_y 1/π_y − |V|²)/(ε²|V|²δ) },  π_y = d(y)/2|E|.
    */
  def neReweighted(degree: Array[Int], t: Array[Int], nV: Long, nE: Long, f: Long,
                   eps: Double, delta: Double): Double = {
    val sInv = degree.map(d => 2.0 * nE / d).sum
    val kT = 18.0 * (sumTSquaredOverPi(degree, t, nE) - 4.0 * f * f) /
             (4.0 * eps * eps * f.toDouble * f * delta)
    val kZ = 18.0 * (sInv - nV.toDouble * nV) / (eps * eps * nV.toDouble * nV * delta)
    math.max(kT, kZ)
  }

  /** All five bounds for one (dataset, label) — one row of Tables 18–22 —
    * from d(u) and T(u) of every node.
    */
  def fromCounts(degree: Array[Int], t: Array[Int], nV: Long, nE: Long, f: Long,
                 eps: Double = 0.1, delta: Double = 0.1): SampleBounds = {
    require(f > 0, s"every bound divides by F², so F must be positive, got $f")
    SampleBounds(
      nsHH = nsHansenHurwitz(nE, f, eps, delta),
      nsHT = nsHorvitzThompson(nE, f, eps, delta),
      neHH = neHansenHurwitz(degree, t, nE, f, eps, delta),
      neHT = neHorvitzThompson(degree, t, nV, nE, f, eps, delta),
      neRW = neReweighted(degree, t, nV, nE, f, eps, delta),
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
