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

  /** One simple-random-walk step from u: a uniform neighbor of u. */
  def step(g: CsrGraph, u: Int, rng: SplittableRandom): Int =
    g.neighbor(u, rng.nextInt(g.degree(u)))

  /** A uniform random start node. */
  def uniformStart(g: CsrGraph, rng: SplittableRandom): Int =
    rng.nextInt(g.numNodes)

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
