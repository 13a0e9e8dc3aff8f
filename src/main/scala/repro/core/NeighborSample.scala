package repro.core

import java.util.SplittableRandom

import scala.collection.mutable

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

  /** Run one simulation; returns (algorithm, k, estimate) for each estimator
    * at each checkpoint. `checkpoints` must be ascending, non-empty and ≥ 1.
    */
  def run(g: CsrGraph, t1: Int, t2: Int, checkpoints: Seq[Int], burnInSteps: Int,
          rng: SplittableRandom): Seq[(String, Int, Double)] = {
    require(checkpoints.nonEmpty && checkpoints.head >= 1 && checkpoints == checkpoints.sorted,
      s"checkpoints must be ascending and >= 1: $checkpoints")
    val nE = g.numEdges
    val maxK = checkpoints.last
    val out = mutable.ArrayBuffer.empty[(String, Int, Double)]

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
      while (next < checkpoints.length && checkpoints(next) == i) {
        val k = checkpoints(next)
        out += ((HH, k, Estimators.nsHansenHurwitz(nE, targetHits, k)))
        out += ((HT, k, Estimators.nsHorvitzThompson(nE, distinctTargets.size, k)))
        next += 1
      }
      i += 1
    }
    out.toSeq
  }
}
