package repro.core

import scala.collection.mutable

import org.apache.spark.sql.DataFrame

import repro.graph.CsrGraph

/** Exact quantities the experiments are measured against, in the
  * experimenter's full view of the graph rather than the restricted API.
  *
  * Every quantity is read off the CSR graph: T(u), the per-node incident
  * target counts, with the walkers' own target test
  * ([[CsrGraph.targetEdgesAt]]); F = Σ_u T(u) / 2; and the label-pair
  * frequency table that the paper's quartile target labels are picked from.
  * The DataFrame entry points collect their input into a CSR graph first.
  * All are checked against DuckDB in tests.
  */
object GroundTruth {

  /** F: the exact number of target edges for labels (t1, t2). */
  def targetEdgeCount(edges: DataFrame, labels: DataFrame, t1: Int, t2: Int): Long =
    targetEdgeCountLocal(CsrGraph.fromDataFrames(edges, labels), t1, t2)

  /** T(u) for every node: the number of target edges incident to u.
    * Σ_u T(u) = 2F. Returns (node, t) including t = 0 rows.
    */
  def incidentTargetCounts(edges: DataFrame, labels: DataFrame, t1: Int, t2: Int): DataFrame = {
    val t = incidentTargets(CsrGraph.fromDataFrames(edges, labels), t1, t2)
    val spark = edges.sparkSession
    import spark.implicits._
    t.indices.map(u => (u.toLong, t(u).toLong)).toDF("node", "t")
  }

  /** The label-pair counts of `edges` and `labels`, counted on their CSR graph. */
  def labelPairCounts(edges: DataFrame, labels: DataFrame): Seq[(Int, Int, Long)] =
    labelPairCounts(CsrGraph.fromDataFrames(edges, labels))

  /** T(u) of every node of `g`, indexed by node id. */
  def incidentTargets(g: CsrGraph, t1: Int, t2: Int): Array[Int] =
    Array.tabulate(g.numNodes)(g.targetEdgesAt(_, t1, t2))

  /** F = Σ_u T(u) / 2 on the CSR graph. */
  def targetEdgeCountLocal(g: CsrGraph, t1: Int, t2: Int): Long =
    incidentTargets(g, t1, t2).foldLeft(0L)(_ + _) / 2

  /** Count of edges per unordered label pair: (l1, l2, cnt) with l1 <= l2,
    * in ascending (l1, l2) order, one pass over the edges (u, v) with u < v.
    * This is the table the paper sorts ascending and quartile-splits to pick
    * target labels.
    */
  def labelPairCounts(g: CsrGraph): Seq[(Int, Int, Long)] = {
    val counts = mutable.LongMap.empty[Long].withDefaultValue(0L)
    for (u <- 0 until g.numNodes; i <- g.offsets(u) until g.offsets(u + 1) if u < g.neighbors(i)) {
      val a = g.labels(u); val b = g.labels(g.neighbors(i))
      counts((math.min(a, b).toLong << 32) | (math.max(a, b) & 0xffffffffL)) += 1
    }
    counts.toSeq.map { case (k, cnt) => ((k >> 32).toInt, k.toInt, cnt) }.sorted
  }
}
