package repro.graph

/** Line-graph degree for the EX-* baseline tests and the reference oracle.
  *
  * The baselines of Li et al. walk on G' = (H, R), where H = E(G) and two
  * G'-nodes are adjacent iff the corresponding G-edges share an endpoint.
  * G' is never materialized: a G'-node is a G-edge (u,v) and its G'-degree
  * is d'(u,v) = d(u)+d(v)-2. The maximum D' is [[CsrGraph.maxLineDegree]];
  * the walker kernel, [[repro.baselines.LineGraphWalks.run]], reads the CSR
  * adjacency of G directly.
  */
object LineGraph {

  /** The degree of edge (u,v) in G'. */
  def lineDegree(g: CsrGraph, u: Int, v: Int): Int = g.degree(u) + g.degree(v) - 2
}
