package repro.baselines

import java.util.SplittableRandom

import scala.collection.mutable

import repro.core.{Estimators, Walks}
import repro.graph.{CsrGraph, LineGraph}

/** Reference implementation of the EX-* chains, kept as a test oracle for
  * the primitive-state kernel [[LineGraphWalks.run]]: a tuple-valued
  * per-step `transition` that matches on the variant, and a tuple-returning
  * uniform line-neighbour draw. The kernel must consume the same random
  * draws in the same order and return the same estimates, bit for bit.
  */
object LineGraphWalksReference {
  import LineGraphWalks._

  /** A uniform random G'-neighbor of the G'-node (u,v): an edge sharing
    * exactly one endpoint with (u,v). Requires d'(u,v) > 0.
    *
    * Returned oriented as (sharedEndpoint, otherEndpoint).
    */
  def uniformLineNeighbor(g: CsrGraph, u: Int, v: Int, rng: SplittableRandom): (Int, Int) = {
    val du = g.degree(u); val dv = g.degree(v)
    val total = du + dv - 2
    require(total > 0, s"edge ($u,$v) is isolated in the line graph")
    // Choose the shared endpoint with probability proportional to its count
    // of other incident edges, then a uniform other edge at that endpoint.
    val r = rng.nextInt(total)
    val (anchor, excluded) = if (r < du - 1) (u, v) else (v, u)
    var w = excluded
    while (w == excluded) w = g.neighbor(anchor, rng.nextInt(g.degree(anchor)))
    (anchor, w)
  }

  /** A start G-edge drawn by one SRW node draw plus a uniform incident edge. */
  private def startEdge(g: CsrGraph, rng: SplittableRandom): (Int, Int) = {
    val u = Walks.uniformStart(g, rng)
    (u, g.neighbor(u, rng.nextInt(g.degree(u))))
  }

  /** One simulation of `variant`, as [[LineGraphWalks.run]]. */
  def run(g: CsrGraph, variant: Variant, t1: Int, t2: Int, checkpoints: Seq[Int],
          burnInSteps: Int, rng: SplittableRandom): Seq[(String, Int, Double)] = {
    require(checkpoints.nonEmpty && checkpoints == checkpoints.sorted,
      s"checkpoints must be ascending: $checkpoints")
    val nE = g.numEdges
    val maxK = checkpoints.last
    val dMax = g.maxLineDegree.toDouble
    val cap = variant match { // self-loop cap for MD-family chains
      case ExGmd(delta) => math.max(1.0, delta * dMax)
      case _            => dMax
    }

    var (eu, ev) = startEdge(g, rng)

    // One chain transition; returns the new state (possibly unchanged).
    def transition(u: Int, v: Int): (Int, Int) = {
      val dCur = LineGraph.lineDegree(g, u, v)
      if (dCur == 0) return (u, v) // isolated G'-node: can only self-loop
      variant match {
        case ExRw =>
          uniformLineNeighbor(g, u, v, rng)
        case ExMhrw =>
          val (a, b) = uniformLineNeighbor(g, u, v, rng)
          val dProp = LineGraph.lineDegree(g, a, b)
          if (rng.nextDouble() < dCur.toDouble / dProp) (a, b) else (u, v)
        case ExRcmh(alpha) =>
          val (a, b) = uniformLineNeighbor(g, u, v, rng)
          val dProp = LineGraph.lineDegree(g, a, b)
          if (rng.nextDouble() < math.pow(dCur.toDouble / dProp, alpha)) (a, b) else (u, v)
        case ExMdrw =>
          if (rng.nextDouble() < dCur / cap) uniformLineNeighbor(g, u, v, rng)
          else (u, v)
        case ExGmd(_) =>
          val m = math.max(dCur.toDouble, cap)
          if (rng.nextDouble() < dCur / m) uniformLineNeighbor(g, u, v, rng)
          else (u, v)
      }
    }

    var i = 0
    while (i < burnInSteps) { val n = transition(eu, ev); eu = n._1; ev = n._2; i += 1 }

    val out = mutable.ArrayBuffer.empty[(String, Int, Double)]
    var hits = 0L          // Σ I(eᵢ) for uniform-stationary chains
    var weightSum = 0.0    // Σ wᵢ for re-weighted chains
    var weightedHits = 0.0 // Σ I(eᵢ)·wᵢ
    var next = 0
    var step = 1
    while (step <= maxK) {
      val n = transition(eu, ev); eu = n._1; ev = n._2
      val isTarget = g.isTargetEdge(eu, ev, t1, t2)
      variant match {
        case ExRw =>
          val w = 1.0 / LineGraph.lineDegree(g, eu, ev)
          weightSum += w; if (isTarget) weightedHits += w
        case ExRcmh(alpha) =>
          val w = math.pow(LineGraph.lineDegree(g, eu, ev).toDouble, alpha - 1.0)
          weightSum += w; if (isTarget) weightedHits += w
        case ExGmd(_) =>
          val w = 1.0 / math.max(LineGraph.lineDegree(g, eu, ev).toDouble, cap)
          weightSum += w; if (isTarget) weightedHits += w
        case _ =>
          if (isTarget) hits += 1
      }
      while (next < checkpoints.length && checkpoints(next) == step) {
        val k = checkpoints(next)
        val est = variant match {
          case ExMhrw | ExMdrw      => Estimators.uniformCount(nE, hits, k)
          case _                    => Estimators.reweightedCount(nE, weightedHits, weightSum)
        }
        out += ((variant.name, k, est))
        next += 1
      }
      step += 1
    }
    out.toSeq
  }
}
