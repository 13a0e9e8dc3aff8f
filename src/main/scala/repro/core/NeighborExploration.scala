package repro.core

import java.util.{Arrays, SplittableRandom}

import repro.graph.CsrGraph

/** NeighborExploration (paper Algorithm 2 + §4.2) — node sampling via one
  * walk, exploring the full friend list of any sampled node that carries a
  * target label to obtain T(u), the count of incident target edges.
  *
  * Budget accounting: checkpoints are *API calls*, not node samples. Each
  * walk step costs one call (fetch the new node's friend list) and each
  * exploration costs d(u) further calls (check each neighbor's profile for
  * its label). This charging is forced by the paper's own results: with
  * free exploration, the NE-HH term |E|·T(u)/d(u) is exactly the
  * conditional expectation of the NS-HH term |E|·I((u,v)) given the walk
  * position u (Rao-Blackwell), so NeighborSample could never win — yet the
  * paper's Tables 4–5 show NS winning when target labels are abundant.
  * Charging the exploration reproduces both regimes (see DESIGN.md §5).
  *
  * Three estimators are evaluated at every checkpoint in one pass; the k in
  * the estimator formulas (Eqs. 11/13/19) is the number of completed
  * sampling iterations when the checkpoint budget is crossed:
  *  - Hansen-Hurwitz (Eq. 11): running Σ T(uᵢ)/d(uᵢ).
  *  - Horvitz-Thompson (Eq. 13): distinct sampled nodes with T(u) > 0 and
  *    their (T, d), kept in first-seen order in primitive arrays;
  *    inclusion probability depends on the iteration count.
  *  - Re-weighted (Eq. 19): running Σ T(uᵢ)/d(uᵢ) and Σ 1/d(uᵢ).
  */
object NeighborExploration {

  val HH = "NeighborExploration-HH"
  val HT = "NeighborExploration-HT"
  val RW = "NeighborExploration-RW"

  /** Run one simulation; over the nK API-call budgets `checkpoints`, returns
    * HH at budget j in slot j, HT in slot nK + j and RW in slot 2·nK + j.
    */
  def run(g: CsrGraph, t1: Int, t2: Int, checkpoints: Seq[Int], burnInSteps: Int,
          rng: SplittableRandom): Array[Double] = {
    val ks = Walks.requireSchedule(checkpoints, burnInSteps)
    val nE = g.numEdges
    val nV = g.numNodes
    val nK = ks.length
    val maxBudget = ks.last
    val out = new Array[Double](3 * nK)

    var u = Walks.burnIn(g, Walks.uniformStart(g, rng), burnInSteps, rng)
    var apiCalls = 0L
    var samples = 0
    var sumTOverD = 0.0
    var sumInvD = 0.0
    // distinct sampled nodes with positive T, and their T(u) and d(u) in
    // first-seen order
    val distinct = new LongSet
    var distinctT = new Array[Int](16)
    var distinctD = new Array[Int](16)
    var nDistinct = 0
    var next = 0
    while (apiCalls < maxBudget) {
      u = Walks.step(g, u, rng)
      apiCalls += 1 // the walk step: one friend-list fetch
      samples += 1
      val d = g.degree(u)
      sumInvD += 1.0 / d
      val lu = g.label(u)
      if (lu == t1 || lu == t2) {
        apiCalls += d // exploration: one profile check per neighbor
        val t = g.targetEdgesAt(u, t1, t2)
        if (t > 0) {
          sumTOverD += t.toDouble / d
          if (distinct.add(u.toLong)) {
            if (nDistinct == distinctT.length) {
              distinctT = Arrays.copyOf(distinctT, 2 * nDistinct)
              distinctD = Arrays.copyOf(distinctD, 2 * nDistinct)
            }
            distinctT(nDistinct) = t; distinctD(nDistinct) = d
            nDistinct += 1
          }
        }
      }
      while (next < nK && ks(next) <= apiCalls) {
        out(next) = Estimators.hansenHurwitz(nE, sumTOverD, samples)
        out(nK + next) = Estimators.neHorvitzThompson(nE, distinctT, distinctD, nDistinct, samples)
        out(2 * nK + next) = Estimators.reweighted(nV, sumTOverD, 2.0 * sumInvD)
        next += 1
      }
    }
    require(next == nK, s"${nK - next} checkpoints not estimated")
    out
  }
}
