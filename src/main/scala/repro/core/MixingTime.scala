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
    require(eps > 0.0 && eps < 1.0, s"eps must lie in (0, 1), got $eps")
    require(maxSteps >= 1, s"maxSteps must be at least 1, got $maxSteps")
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

  /** T(ε) over the sampled starts (paper uses ε = 1e-3). Fails if a start
    * does not reach ε within `maxSteps`: the cap would silently truncate
    * the burn-in. Only then is the graph checked for being bipartite, so
    * that a periodic walk, which no cap would fix, is named as such.
    */
  def estimate(g: CsrGraph, eps: Double, extraStarts: Int, maxSteps: Int): Int = {
    val t = startSample(g, extraStarts).map(fromStart(g, _, eps, maxSteps)).max
    require(t < maxSteps,
      if (isBipartite(g)) s"the graph is bipartite, so the walk is periodic and never reaches TV < $eps: " +
        "Eq. 23 has no finite T(eps)"
      else s"a start did not reach TV < $eps within the cap of $maxSteps steps")
    t
  }

  /** Whether the nodes 2-colour so that every edge joins the two colours
    * (one BFS per component): on a connected graph, exactly then the SRW
    * chain has period 2.
    */
  private def isBipartite(g: CsrGraph): Boolean = {
    val colour = Array.fill(g.numNodes)(-1)
    val queue = new Array[Int](g.numNodes)
    (0 until g.numNodes).forall { root =>
      if (colour(root) >= 0) true
      else {
        colour(root) = 0
        queue(0) = root
        var head = 0; var tail = 1; var ok = true
        while (ok && head < tail) {
          val u = queue(head); head += 1
          var i = g.offsets(u)
          while (ok && i < g.offsets(u + 1)) {
            val v = g.neighbors(i)
            if (colour(v) < 0) { colour(v) = 1 - colour(u); queue(tail) = v; tail += 1 }
            else ok = colour(v) != colour(u)
            i += 1
          }
        }
        ok
      }
    }
  }
}
