package repro.graph

import java.util.SplittableRandom

/** Line-graph substrate for the EX-* baselines.
  *
  * The baselines of Li et al. walk on G' = (H, R), where H = E(G) and two
  * G'-nodes are adjacent iff the corresponding G-edges share an endpoint.
  * G' is never materialized: a G'-node is a G-edge (u,v), its G'-degree is
  * d'(u,v) = d(u)+d(v)-2, and a uniform G'-neighbor is drawn directly from
  * the CSR adjacency of G (pick an endpoint ∝ its remaining slots, then a
  * uniform *other* edge at that endpoint via rejection — exact because the
  * graph has no multi-edges).
  */
object LineGraph {

  /** The degree of edge (u,v) in G'. */
  def lineDegree(g: CsrGraph, u: Int, v: Int): Int = g.degree(u) + g.degree(v) - 2

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
}
