package repro.baselines

import java.util.SplittableRandom

import repro.core.{Estimators, Walks}
import repro.graph.CsrGraph

/** Baselines adapted from Li et al. (ICDE'15) per the paper's §5.1: random
  * walks on the line graph G' of G, estimating the count of target *nodes*
  * of G' (= target edges of G).
  *
  * G' is simulated directly on G: a walk state is a G-edge (u, v), whose
  * G'-degree is d'(u,v) = d(u)+d(v)-2. Five chains/estimators:
  *
  *  - EX-RW    simple walk on G'; re-weighted by 1/d'(e).
  *  - EX-MHRW  Metropolis-Hastings to a uniform stationary; plain average.
  *  - EX-MDRW  maximum-degree chain (self-loops up to D' = max d');
  *             uniform stationary; plain average over all steps.
  *  - EX-RCMH  rejection-controlled MH with exponent α ∈ [0, 1] (the
  *             experiments use 0.3): accept min(1, (d'(e)/d'(f))^α);
  *             stationary ∝ d'(e)^(1-α); re-weighted by d'(e)^(α-1).
  *             α = 0 degenerates to EX-RW.
  *  - EX-GMD   generalized maximum degree with C = δ·D', δ > 0 (the
  *             experiments use 0.5): move w.p. d'(e)/m(e), m(e) =
  *             max(d'(e), C); stationary ∝ m(e); re-weighted by 1/m(e).
  *             δ ≥ 1 degenerates to the MD chain with cap C.
  *
  * Every chain step — including MH rejections and MD self-loops — consumes
  * one unit of the sample budget, matching the paper's accounting.
  */
object LineGraphWalks {

  val RW   = "EX-RW"
  val MHRW = "EX-MHRW"
  val MDRW = "EX-MDRW"
  val RCMH = "EX-RCMH"
  val GMD  = "EX-GMD"

  sealed trait Variant { def name: String }
  case object ExRw extends Variant { val name = RW }
  case object ExMhrw extends Variant { val name = MHRW }
  case object ExMdrw extends Variant { val name = MDRW }
  final case class ExRcmh(alpha: Double) extends Variant {
    require(alpha >= 0.0 && alpha <= 1.0, s"EX-RCMH needs a finite alpha in [0, 1], got $alpha")
    val name = RCMH
  }
  final case class ExGmd(delta: Double) extends Variant {
    require(delta > 0.0 && !delta.isInfinite, s"EX-GMD needs a finite delta > 0, got $delta")
    val name = GMD
  }

  /** All five variants with the experiment parameter choices (DESIGN.md §3). */
  def defaultVariants: Seq[Variant] =
    Seq(ExRw, ExMhrw, ExMdrw, ExRcmh(0.3), ExGmd(0.5))

  // Chain kinds, resolved once per run.
  private final val KRw = 0
  private final val KMhrw = 1
  private final val KMdrw = 2
  private final val KRcmh = 3
  private final val KGmd = 4

  /** Run one simulation of `variant`; returns its estimate at checkpoint j in slot j.
    *
    * One loop runs the burn-in (steps 1 − burnInSteps .. 0) and the sampled
    * steps 1 .. max(checkpoints) over `Int` state: the current G-edge (u, v)
    * oriented as the chain last entered it, and the degrees d(u), d(v), so
    * d'(u, v) = d(u) + d(v) − 2. From a state with d' > 0 a step is:
    *
    *  - MD family (EX-MDRW, EX-GMD): one `nextDouble()` coin, moving w.p.
    *    d'/max(d', C) (for EX-MDRW C = D' ≥ d'); on a move, a proposal.
    *  - otherwise: a proposal, then for EX-MHRW and EX-RCMH one
    *    `nextDouble()` drawn for the acceptance test.
    *
    * A proposal is a uniform G'-neighbour: `nextInt(d')` picks the shared
    * endpoint a ∈ {u, v} ∝ its d(a) − 1 other edges, then `nextInt(d(a))`
    * is redrawn until the neighbour w is not the excluded endpoint (exact:
    * no multi-edges). A move enters (a, w). A state with d' = 0 self-loops
    * without drawing. Nothing is allocated per step.
    */
  def run(g: CsrGraph, variant: Variant, t1: Int, t2: Int, checkpoints: Seq[Int],
          burnInSteps: Int, rng: SplittableRandom): Array[Double] = {
    val ks = Walks.requireSchedule(checkpoints, burnInSteps)
    val nE = g.numEdges
    val maxK = ks.last
    val offsets = g.offsets
    val neighbors = g.neighbors
    val dMax = g.maxLineDegree.toDouble
    val (kind, cap, alpha) = variant match { // cap: self-loop cap of the MD family
      case ExRw          => (KRw, dMax, 0.0)
      case ExMhrw        => (KMhrw, dMax, 0.0)
      case ExMdrw        => (KMdrw, dMax, 0.0)
      case ExRcmh(a)     => (KRcmh, dMax, a)
      case ExGmd(delta)  => (KGmd, math.max(1.0, delta * dMax), 0.0)
    }
    val mdFamily = kind == KMdrw || kind == KGmd
    val uniformStationary = kind == KMhrw || kind == KMdrw // plain average, else re-weighted
    // EX-RCMH weights d'^(α-1), filled on first use (0.0 = not yet computed;
    // every weight is > 0 for α ≤ 1)
    val rcmhWeight = if (kind == KRcmh) new Array[Double](g.maxLineDegree + 1) else null

    // Start edge: one uniform node draw plus a uniform incident edge (any
    // start works — the chain burn-in dominates).
    var u = Walks.uniformStart(g, rng)
    var dU = offsets(u + 1) - offsets(u)
    var v = neighbors(offsets(u) + rng.nextInt(dU))
    var dV = offsets(v + 1) - offsets(v)

    val out = new Array[Double](ks.length)
    var hits = 0L          // Σ I(eᵢ) for uniform-stationary chains
    var weightSum = 0.0    // Σ wᵢ for re-weighted chains
    var weightedHits = 0.0 // Σ I(eᵢ)·wᵢ
    var next = 0
    var step = 1 - burnInSteps
    while (step <= maxK) {
      val dCur = dU + dV - 2
      if (dCur > 0 && (!mdFamily || rng.nextDouble() < dCur / math.max(dCur.toDouble, cap))) {
        val anchorIsU = rng.nextInt(dCur) < dU - 1
        val a = if (anchorIsU) u else v
        val excluded = if (anchorIsU) v else u
        val dA = if (anchorIsU) dU else dV
        val base = offsets(a)
        var w = excluded
        while (w == excluded) w = neighbors(base + rng.nextInt(dA))
        val dW = offsets(w + 1) - offsets(w)
        val accept = kind match {
          case KMhrw => rng.nextDouble() < dCur.toDouble / (dA + dW - 2)
          case KRcmh =>
            // pow(r ≥ 1, α ≥ 0) ≥ 1 > x, so the pow is only needed for r < 1
            val dProp = dA + dW - 2
            val x = rng.nextDouble()
            dCur >= dProp || x < math.pow(dCur.toDouble / dProp, alpha)
          case _ => true
        }
        if (accept) { u = a; dU = dA; v = w; dV = dW }
      }
      if (step >= 1) {
        val isTarget = g.isTargetEdge(u, v, t1, t2)
        val dLine = dU + dV - 2
        if (uniformStationary) {
          if (isTarget) hits += 1
        } else {
          val wt = kind match {
            case KRw   => 1.0 / dLine
            case KRcmh =>
              var x = rcmhWeight(dLine)
              if (x == 0.0) { x = math.pow(dLine.toDouble, alpha - 1.0); rcmhWeight(dLine) = x }
              x
            case _     => 1.0 / math.max(dLine.toDouble, cap)
          }
          weightSum += wt; if (isTarget) weightedHits += wt
        }
        while (next < ks.length && ks(next) == step) {
          out(next) =
            if (uniformStationary) Estimators.uniformCount(nE, hits, step)
            else Estimators.reweightedCount(nE, weightedHits, weightSum)
          next += 1
        }
      }
      step += 1
    }
    require(next == ks.length, s"${ks.length - next} checkpoints not estimated")
    out
  }
}
