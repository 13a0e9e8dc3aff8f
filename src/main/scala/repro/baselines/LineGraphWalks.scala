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
  *  - EX-MHRW  Metropolis-Hastings to a uniform stationary; unit weights.
  *  - EX-MDRW  maximum-degree chain (self-loops up to D' = max d');
  *             uniform stationary; unit weights over all steps.
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
  * one unit of the sample budget, matching the paper's accounting. All five
  * use the ratio [[repro.core.Estimators.reweighted]]: unit weights sum
  * exactly, so the uniform chains get their plain average |E|·Σ I(eᵢ)/k.
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
    * A proposal is a uniform G'-neighbour: `Walks.below(rng, d')` picks the
    * shared endpoint a ∈ {u, v} ∝ its d(a) − 1 other edges, then
    * `Walks.below(rng, d(a))` is redrawn until the neighbour w is not the
    * excluded endpoint (exact: no multi-edges). A move enters (a, w). A state
    * with d' = 0 self-loops without drawing. Nothing is allocated per step.
    *
    * Everything that depends only on the state — d', the target test, the
    * estimator weight and the MD move probability — is computed once, when
    * the chain enters the edge, so a rejection or self-loop step only draws
    * and accumulates. EX-RCMH decides x < (d'(e)/d'(f))^α by [[rcmhAccept]]
    * from a lazily filled d^α table, falling back to the direct `pow` only
    * within 2⁻⁴⁰ of the boundary, where the two could disagree; every
    * decision, draw and estimate is that of the direct test.
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
    // EX-RCMH tables d^α and d^(α-1), filled on first use (0.0 = not yet
    // computed; no entry is 0 for α ∈ [0, 1])
    val rcmhPow = if (kind == KRcmh) new Array[Double](g.maxLineDegree + 1) else null
    val rcmhWeight = if (kind == KRcmh) new Array[Double](g.maxLineDegree + 1) else null

    // Start edge: one uniform node draw plus a uniform incident edge (any
    // start works — the chain burn-in dominates).
    var u = Walks.uniformStart(g, rng)
    var dU = offsets(u + 1) - offsets(u)
    var v = neighbors(offsets(u) + Walks.below(rng, dU))
    var dV = offsets(v + 1) - offsets(v)
    // per-state values of (u, v), refreshed whenever the chain moves
    var dCur = dU + dV - 2
    var moveP = if (mdFamily) dCur / math.max(dCur.toDouble, cap) else 1.0
    var isTarget = g.isTargetEdge(u, v, t1, t2)
    var wt = weight(kind, dCur, cap, alpha, rcmhWeight)

    val out = new Array[Double](ks.length)
    var weightSum = 0.0    // Σ wᵢ
    var weightedHits = 0.0 // Σ I(eᵢ)·wᵢ
    var next = 0           // slot of the next checkpoint, at step nextK
    var nextK = ks(0)
    var step = 1 - burnInSteps
    while (step <= maxK) {
      if (dCur > 0 && (!mdFamily || rng.nextDouble() < moveP)) {
        val anchorIsU = Walks.below(rng, dCur) < dU - 1
        val a = if (anchorIsU) u else v
        val excluded = if (anchorIsU) v else u
        val dA = if (anchorIsU) dU else dV
        val base = offsets(a)
        var w = excluded
        while (w == excluded) w = neighbors(base + Walks.below(rng, dA))
        val dW = offsets(w + 1) - offsets(w)
        val dProp = dA + dW - 2
        val accept = kind match {
          case KMhrw => rng.nextDouble() < dCur.toDouble / dProp
          case KRcmh => rcmhAccept(rng.nextDouble(), dCur, dProp, alpha, rcmhPow)
          case _ => true
        }
        if (accept) {
          u = a; dU = dA; v = w; dV = dW
          dCur = dProp
          if (mdFamily) moveP = dCur / math.max(dCur.toDouble, cap)
          isTarget = g.isTargetEdge(u, v, t1, t2)
          wt = weight(kind, dCur, cap, alpha, rcmhWeight)
        }
      }
      if (step >= 1) {
        weightSum += wt; if (isTarget) weightedHits += wt
        if (step == nextK) { // strictly ascending: at most one checkpoint per step
          out(next) = Estimators.reweighted(nE, weightedHits, weightSum)
          next += 1
          nextK = if (next < ks.length) ks(next) else 0 // 0: none left
        }
      }
      step += 1
    }
    require(next == ks.length, s"${ks.length - next} checkpoints not estimated")
    out
  }

  /** The estimator weight of a state with line degree d: 1/d (EX-RW),
    * d^(α-1) (EX-RCMH), 1/max(d, C) (EX-GMD), 1 (EX-MHRW, EX-MDRW).
    */
  private def weight(kind: Int, d: Int, cap: Double, alpha: Double, rcmhWeight: Array[Double]): Double =
    kind match {
      case KRw   => 1.0 / d
      case KRcmh => tabled(rcmhWeight, d, alpha - 1.0)
      case KGmd  => 1.0 / math.max(d.toDouble, cap)
      case _     => 1.0
    }

  /** `table(d)` = d^exponent, computed on first use (0.0 marks an empty slot). */
  private def tabled(table: Array[Double], d: Int, exponent: Double): Double = {
    var x = table(d)
    if (x == 0.0) { x = math.pow(d.toDouble, exponent); table(d) = x }
    x
  }

  private val AcceptBelow = 1.0 - math.scalb(1.0, -40)
  private val RejectAbove = 1.0 + math.scalb(1.0, -40)

  /** EX-RCMH's acceptance test `x < math.pow(dCur.toDouble / dProp, alpha)`
    * for line degrees dCur, dProp ≥ 1, with `dPow` the lazily filled table d^α.
    *
    * q = dCur^α / dProp^α from the table differs from that `pow` by a few
    * ulps: `Math.pow` is within 1 ulp and semi-monotonic, and the quotients
    * are correctly rounded. So x below q·(1 − 2⁻⁴⁰) or above q·(1 + 2⁻⁴⁰)
    * is decided the same way by both, and only x inside that band computes
    * the `pow`. For dCur ≥ dProp both accept every x < 1, since q ≥ 1.
    */
  private[baselines] def rcmhAccept(x: Double, dCur: Int, dProp: Int, alpha: Double,
                                    dPow: Array[Double]): Boolean = {
    val q = tabled(dPow, dCur, alpha) / tabled(dPow, dProp, alpha)
    if (x < q * AcceptBelow) true
    else if (x > q * RejectAbove) false
    else x < math.pow(dCur.toDouble / dProp, alpha)
  }
}
