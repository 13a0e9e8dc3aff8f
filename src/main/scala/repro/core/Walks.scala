package repro.core

import java.util.SplittableRandom

import repro.graph.CsrGraph

/** Simple-random-walk primitives over the restricted-API graph.
  *
  * A walk only touches the [[CsrGraph]] API surface (degree / neighbor),
  * mirroring the paper's access model. All randomness flows through a
  * caller-supplied [[SplittableRandom]] so simulations are reproducible and
  * independently seedable per (experiment, algorithm, simulation).
  */
object Walks {

  /** A uniform draw from [0, bound), bound ≥ 1, without a division in the
    * common case: Lemire's multiply-shift ("Fast Random Integer Generation
    * in an Interval", ACM TOMACS 2019). The 64-bit product m = x·bound of an
    * unsigned 32-bit `rng.nextInt()` x has high half ⌊x·bound / 2³²⌋; x is
    * redrawn while the low half of m is below (2³² − bound) mod bound, which
    * leaves exactly ⌊2³² / bound⌋ accepted x per result, so the draw is
    * exactly uniform. The modulus is computed only when the low half is
    * below `bound`, which happens with probability bound / 2³².
    */
  def below(rng: SplittableRandom, bound: Int): Int = {
    require(bound > 0, s"bound must be positive, got $bound")
    var m = (rng.nextInt() & 0xFFFFFFFFL) * bound
    if ((m & 0xFFFFFFFFL) < bound) {
      val reject = ((1L << 32) - bound) % bound
      while ((m & 0xFFFFFFFFL) < reject) m = (rng.nextInt() & 0xFFFFFFFFL) * bound
    }
    (m >>> 32).toInt
  }

  /** One simple-random-walk step from u: a uniform neighbor of u. */
  def step(g: CsrGraph, u: Int, rng: SplittableRandom): Int =
    g.neighbor(u, below(rng, g.degree(u)))

  /** A uniform random start node. */
  def uniformStart(g: CsrGraph, rng: SplittableRandom): Int =
    below(rng, g.numNodes)

  /** Checks the schedule every walker and the NRMSE harness take —
    * `checkpoints` non-empty, strictly ascending and ≥ 1, burn-in ≥ 0 — and
    * returns the checkpoints as an array.
    */
  def requireSchedule(checkpoints: Seq[Int], burnInSteps: Int): Array[Int] = {
    require(checkpoints.nonEmpty && checkpoints.head >= 1 && checkpoints.lazyZip(checkpoints.tail).forall(_ < _) &&
      burnInSteps >= 0, s"checkpoints must be strictly ascending and >= 1, burnInSteps >= 0: $checkpoints, $burnInSteps")
    checkpoints.toArray
  }

  /** Walk `burnIn` steps from `start` and return the end node — the paper's
    * "walk until the mixing time is achieved" prefix, excluded from samples.
    */
  def burnIn(g: CsrGraph, start: Int, steps: Int, rng: SplittableRandom): Int = {
    var u = start
    var i = 0
    while (i < steps) { u = step(g, u, rng); i += 1 }
    u
  }
}
