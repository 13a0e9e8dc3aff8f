package repro.core

import java.util.SplittableRandom

import repro.graph.CsrGraph

/** NeighborSample (paper Algorithm 1 + §4.1) — edge sampling via one walk.
  *
  * Per the paper's single-walk implementation: burn in past the mixing time,
  * then take k further steps and treat each traversed edge as one sample
  * (each sampled edge is uniform over E under the stationary distribution).
  * Both estimators are evaluated at every checkpoint budget from one pass:
  *
  *  - Hansen-Hurwitz (Eq. 2) needs only the running count of target hits.
  *  - Horvitz-Thompson (Eq. 3) needs the count of *distinct* target edges
  *    seen so far (DESIGN.md §3 records why no r=2.5%k thinning is applied).
  */
object NeighborSample {

  val HH = "NeighborSample-HH"
  val HT = "NeighborSample-HT"

  /** Run one simulation; returns 2·nK estimates over the nK `checkpoints`:
    * HH at checkpoint j in slot j, then HT at checkpoint j in slot nK + j.
    */
  def run(g: CsrGraph, t1: Int, t2: Int, checkpoints: Seq[Int], burnInSteps: Int,
          rng: SplittableRandom): Array[Double] = {
    val ks = Walks.requireSchedule(checkpoints, burnInSteps)
    val nE = g.numEdges
    val nK = ks.length
    val maxK = ks.last
    val out = new Array[Double](2 * nK)

    var u = Walks.burnIn(g, Walks.uniformStart(g, rng), burnInSteps, rng)
    var targetHits = 0L
    val distinctTargets = new LongSet
    var next = 0 // index of next checkpoint to emit
    var i = 1
    while (i <= maxK) {
      val v = Walks.step(g, u, rng)
      if (g.isTargetEdge(u, v, t1, t2)) {
        targetHits += 1
        distinctTargets.add(CsrGraph.edgeKey(u, v))
      }
      u = v
      while (next < nK && ks(next) == i) {
        out(next) = Estimators.hansenHurwitz(nE, targetHits.toDouble, i)
        out(nK + next) = Estimators.nsHorvitzThompson(nE, distinctTargets.size, i)
        next += 1
      }
      i += 1
    }
    require(next == nK, s"${nK - next} checkpoints not estimated")
    out
  }
}
