package repro.core

import repro.graph.CsrGraph

/** Mixing time of the simple-random-walk Markov chain (paper Eq. 23).
  *
  * T(ε) = max_i min{ t : ||π − π⁽ⁱ⁾Pᵗ||_TV < ε } with π(u) = d(u)/2|E|.
  * The exact max over all |V| start distributions is O(|V|·|E|·T); following
  * DESIGN.md §3 we take the max over a deterministic sample of starts that
  * always includes the maximum-degree node and a spread of node ids. The
  * result is used as the burn-in length for every walk, exactly as in the
  * paper's §5.1.
  */
object MixingTime {

  /** Total-variation distance between a distribution vector and π. */
  private def tvToStationary(p: Array[Double], stationary: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < p.length) { s += math.abs(p(i) - stationary(i)); i += 1 }
    s / 2.0
  }

  /** One transition step q = pP for the SRW chain: q(v) = Σ_{u~v} p(u)/d(u). */
  private[core] def stepDistribution(g: CsrGraph, p: Array[Double]): Array[Double] = {
    val q = new Array[Double](g.numNodes)
    var u = 0
    while (u < g.numNodes) {
      val pu = p(u)
      if (pu > 0) {
        val d = g.degree(u)
        val w = pu / d
        var i = g.offsets(u)
        while (i < g.offsets(u + 1)) { q(g.neighbors(i)) += w; i += 1 }
      }
      u += 1
    }
    q
  }

  /** The stationary distribution π(u) = d(u) / 2|E|. */
  def stationary(g: CsrGraph): Array[Double] = {
    val twoE = 2.0 * g.numEdges
    Array.tabulate(g.numNodes)(u => g.degree(u) / twoE)
  }

  /** min{ t ≤ maxSteps : TV(π⁽ˢᵗᵃʳᵗ⁾Pᵗ, π) < eps }, or maxSteps if not reached. */
  def fromStart(g: CsrGraph, start: Int, eps: Double, maxSteps: Int): Int = {
    val pi = stationary(g)
    var p = new Array[Double](g.numNodes)
    p(start) = 1.0
    var t = 0
    while (t < maxSteps && tvToStationary(p, pi) >= eps) {
      p = stepDistribution(g, p)
      t += 1
    }
    t
  }

  /** Deterministic start sample: the max-degree node plus `extra` nodes at
    * evenly spaced ids (bipartite-free social graphs mix fast, so a small
    * sample bounds T(ε) well).
    */
  def startSample(g: CsrGraph, extra: Int): Seq[Int] = {
    val maxDegNode = (0 until g.numNodes).maxBy(g.degree)
    val spread = (0 until extra).map(i => (i.toLong * g.numNodes / math.max(1, extra)).toInt)
    (maxDegNode +: spread).distinct
  }

  /** T(ε) over the sampled starts (paper uses ε = 1e-3). */
  def estimate(g: CsrGraph, eps: Double, extraStarts: Int, maxSteps: Int): Int =
    startSample(g, extraStarts).map(fromStart(g, _, eps, maxSteps)).max
}
