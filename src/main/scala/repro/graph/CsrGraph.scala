package repro.graph

import scala.collection.immutable.ArraySeq

import org.apache.spark.sql.DataFrame

/** Compact in-memory labeled graph in CSR form — the "restricted API".
  *
  * The paper's access model is an OSN reachable only through a
  * retrieve-neighbor-list API plus prior knowledge of |V| and |E|. This
  * class *is* that API surface for the walkers: they may read `degree(u)`
  * (the length of u's friend list), `neighbor(u, i)` (one entry of it),
  * `label(u)` (the user's profile label), and the global constants
  * `numNodes` / `numEdges`. Nothing else about the graph is exposed to the
  * estimation algorithms.
  *
  * Node ids must be the contiguous range [0, n); build via [[CsrGraph.fromDataFrames]]
  * after [[GraphOps.largestComponent]] remapping. The structure is a value
  * object — broadcast it once per experiment and share across all simulated
  * walks.
  */
final class CsrGraph(
    val offsets: Array[Int],    // length n+1; neighbor slice of u is [offsets(u), offsets(u+1))
    val neighbors: Array[Int],  // length 2|E|
    val labels: Array[Int],     // length n
) extends Serializable {

  /** Number of nodes |V|. */
  def numNodes: Int = offsets.length - 1

  /** Number of undirected edges |E|. */
  def numEdges: Long = neighbors.length.toLong / 2

  /** Degree d(u) — the size of u's friend list. */
  def degree(u: Int): Int = offsets(u + 1) - offsets(u)

  /** The i-th entry of u's friend list, 0 <= i < degree(u). */
  def neighbor(u: Int, i: Int): Int = neighbors(offsets(u) + i)

  /** The profile label of u. */
  def label(u: Int): Int = labels(u)

  /** Maximum degree over all nodes. */
  lazy val maxDegree: Int = (0 until numNodes).map(degree).max

  /** Maximum line-graph degree max_(u,v)∈E (d(u)+d(v)-2), used by the
    * MD-style baselines; a full-knowledge constant, as in the paper.
    */
  lazy val maxLineDegree: Int = {
    var best = 0
    var u = 0
    while (u < numNodes) {
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        val v = neighbors(i)
        if (u < v) best = math.max(best, degree(u) + degree(v) - 2)
        i += 1
      }
      u += 1
    }
    best
  }

  /** T(u): the number of target edges incident to u for labels (t1, t2) —
    * what NeighborExploration computes by exploring u's full friend list.
    */
  def targetEdgesAt(u: Int, t1: Int, t2: Int): Int = {
    val lu = labels(u)
    if (lu != t1 && lu != t2) return 0
    var cnt = 0
    var i = offsets(u)
    while (i < offsets(u + 1)) {
      val lv = labels(neighbors(i))
      if ((lu == t1 && lv == t2) || (lu == t2 && lv == t1)) cnt += 1
      i += 1
    }
    cnt
  }

  /** Whether edge (u,v) is a target edge for labels (t1, t2). */
  def isTargetEdge(u: Int, v: Int, t1: Int, t2: Int): Boolean = {
    val lu = labels(u); val lv = labels(v)
    (lu == t1 && lv == t2) || (lu == t2 && lv == t1)
  }
}

object CsrGraph {

  /** Undirected (u,v) with u<v encoded into one Long — set keys for the
    * Horvitz-Thompson distinct-edge bookkeeping.
    */
  def edgeKey(u: Int, v: Int): Long = {
    val a = math.min(u, v).toLong
    val b = math.max(u, v).toLong
    (a << 32) | b
  }

  /** Build from a canonical edge list and (node,label) DataFrame whose node
    * ids are already the contiguous range [0, n). Collects to the driver —
    * the experiment graphs are deliberately laptop-scale (DESIGN.md §3).
    */
  def fromDataFrames(edges: DataFrame, labelDf: DataFrame): CsrGraph = {
    val es = edges.select("src", "dst").collect()
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt))
    val ls = labelDf.select("node", "label").collect()
      .map(r => (r.getLong(0).toInt, r.getInt(1)))
    val n = ls.map(_._1).max + 1
    fromEdges(n, ArraySeq.unsafeWrapArray(es), ArraySeq.unsafeWrapArray(ls))
  }

  /** Build from local arrays; labels default to 0 for unlisted nodes. */
  def fromEdges(n: Int, edges: Seq[(Int, Int)], labels: Seq[(Int, Int)] = Nil): CsrGraph = {
    val deg = new Array[Int](n)
    edges.foreach { case (u, v) =>
      require(u != v, s"self-loop $u"); require(u < n && v < n, s"node out of range ($u,$v)")
      deg(u) += 1; deg(v) += 1
    }
    val offsets = new Array[Int](n + 1)
    var i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val cursor = offsets.clone()
    val nbr = new Array[Int](offsets(n))
    edges.foreach { case (u, v) =>
      nbr(cursor(u)) = v; cursor(u) += 1
      nbr(cursor(v)) = u; cursor(v) += 1
    }
    val lab = new Array[Int](n)
    labels.foreach { case (u, l) => lab(u) = l }
    new CsrGraph(offsets, nbr, lab)
  }
}
