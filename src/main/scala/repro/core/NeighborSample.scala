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
          rng: SplittableRandom): Array[Double] =
    runLanes(g, t1, t2, checkpoints, burnInSteps, Array(rng))(0)

  /** Run one simulation per stream of `rngs` (distinct objects) as lockstep
    * lanes; lane l's estimates are `run(…, rngs(l))` in its layout.
    *
    * Each step advances every lane once. A lane's steps form one chain of
    * dependent loads (offsets(u), then neighbors(…), then the next u), while
    * the lanes' chains are independent, so the CPU overlaps their cache
    * misses. Lane l draws only from rngs(l), in the order a lone run draws:
    * its start node, its burn-in steps (1 − burnInSteps .. 0), then its
    * sampled steps 1 .. max(checkpoints). So every lane is bit-identical to a
    * lone run, whatever the other lanes.
    */
  def runLanes(g: CsrGraph, t1: Int, t2: Int, checkpoints: Seq[Int], burnInSteps: Int,
               rngs: Array[SplittableRandom]): Array[Array[Double]] = {
    val ks = Walks.requireSchedule(checkpoints, burnInSteps)
    val nE = g.numEdges
    val nK = ks.length
    val lanes = rngs.length
    val out = Array.fill(lanes)(new Array[Double](2 * nK))
    val node = Array.tabulate(lanes)(l => Walks.uniformStart(g, rngs(l)))
    val targetHits = new Array[Long](lanes)
    val distinctTargets = Array.fill(lanes)(new LongSet)

    var next = 0 // slot of the next checkpoint, at step nextK
    var nextK = ks(0)
    var step = 1 - burnInSteps
    while (step <= ks.last) {
      var l = 0
      while (l < lanes) {
        val u = node(l)
        val v = Walks.step(g, u, rngs(l))
        if (step >= 1 && g.isTargetEdge(u, v, t1, t2)) {
          targetHits(l) += 1
          distinctTargets(l).add(CsrGraph.edgeKey(u, v))
        }
        node(l) = v
        l += 1
      }
      if (step == nextK) { // strictly ascending: at most one checkpoint per step
        l = 0
        while (l < lanes) {
          out(l)(next) = Estimators.hansenHurwitz(nE, targetHits(l).toDouble, step)
          out(l)(nK + next) = Estimators.nsHorvitzThompson(nE, distinctTargets(l).size, step)
          l += 1
        }
        next += 1
        nextK = if (next < nK) ks(next) else 0 // 0: none left
      }
      step += 1
    }
    require(next == nK, s"${nK - next} checkpoints not estimated")
    out
  }
}
