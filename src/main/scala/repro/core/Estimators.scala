package repro.core

/** Pure estimator algebra shared by the sampling processes.
  *
  * Keeping the formulas here (free of walk state) lets tests check each one
  * against hand-computed values and lets the walkers stay streaming: each
  * sampler maintains a handful of running sums and evaluates these closed
  * forms at every checkpoint budget. The ten algorithms use three forms:
  *
  *  - Hansen-Hurwitz: NS-HH (Eq. 2) and NE-HH (Eq. 11).
  *  - Horvitz-Thompson: NS-HT (Eq. 3) and NE-HT (Eq. 13).
  *  - Re-weighted ratio: NE-RW (Eq. 19) and the five EX-* baselines; the
  *    uniform chains EX-MHRW and EX-MDRW carry unit weights.
  */
object Estimators {

  /** P(item sampled at least once in k iid draws) for per-draw probability
    * `pi` — the Horvitz-Thompson inclusion probability 1-(1-pi)^k.
    */
  def htInclusionProb(pi: Double, k: Int): Double =
    1.0 - math.pow(1.0 - pi, k.toDouble)

  /** Hansen-Hurwitz: F̂ = (|E|/k) Σ yᵢ, with `sum` = Σ yᵢ over k samples.
    * NeighborSample (Eq. 2) sums yᵢ = I(eᵢ); NeighborExploration (Eq. 11)
    * sums yᵢ = T(uᵢ)/d(uᵢ), so F̂ = (1/k) Σ T(uᵢ)/(2π(uᵢ)).
    */
  def hansenHurwitz(population: Long, sum: Double, k: Int): Double =
    population.toDouble * sum / k

  /** NeighborSample Horvitz-Thompson (paper Eq. 3):
    * F̂ = (#distinct target edges in S) / (1-(1-1/|E|)^k).
    */
  def nsHorvitzThompson(nE: Long, distinctTargetEdges: Int, k: Int): Double =
    distinctTargetEdges / htInclusionProb(1.0 / nE, k)

  /** NeighborExploration Horvitz-Thompson (paper Eq. 13):
    * F̂ = ½ Σ_{distinct u∈S} T(u) / (1-(1-d(u)/2|E|)^k).
    * Slot i < n of `t` and `d` holds T(u) and d(u) of the i-th distinct
    * sampled node with T > 0; the sum runs in slot order.
    */
  def neHorvitzThompson(nE: Long, t: Array[Int], d: Array[Int], n: Int, k: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < n) { s += t(i) / htInclusionProb(d(i) / (2.0 * nE), k); i += 1 }
    s / 2.0
  }

  /** Re-weighted ratio: F̂ = population · (Σ yᵢ·wᵢ) / (Σ wᵢ), wᵢ the inverse
    * stationary weight of the i-th sample. NeighborExploration (Eq. 19)
    * passes |V|, Σ T(uᵢ)/d(uᵢ) and 2 Σ 1/d(uᵢ); the EX-* baselines pass
    * |E(G)| (the node count of the line graph), Σ I(eᵢ)·wᵢ and Σ wᵢ.
    */
  def reweighted(population: Long, weightedSum: Double, weightSum: Double): Double =
    population * weightedSum / weightSum
}
