package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.graph.CsrGraph

/** Exact quantities the experiments are measured against.
  *
  * Everything here is bulk dataflow over the full graph (the experimenter's
  * view, not the restricted-API view): the target-edge count F, per-node
  * incident target counts T(u), and label-pair frequency tables used to pick
  * the paper's quartile target labels. All are Oracle-checked in tests.
  */
object GroundTruth {

  /** Edge list joined with both endpoint labels: (src, dst, lsrc, ldst). */
  private def labeledEdges(edges: DataFrame, labels: DataFrame): DataFrame = {
    edges
      .join(labels.withColumnRenamed("node", "src").withColumnRenamed("label", "lsrc"), Seq("src"))
      .join(labels.withColumnRenamed("node", "dst").withColumnRenamed("label", "ldst"), Seq("dst"))
  }

  /** The target edges for labels (t1, t2), as labeled edges. */
  private def targetEdges(edges: DataFrame, labels: DataFrame, t1: Int, t2: Int): DataFrame =
    labeledEdges(edges, labels)
      .where((col("lsrc") === t1 && col("ldst") === t2) ||
             (col("lsrc") === t2 && col("ldst") === t1))

  /** F: the exact number of target edges for labels (t1, t2). */
  def targetEdgeCount(edges: DataFrame, labels: DataFrame, t1: Int, t2: Int): Long =
    targetEdges(edges, labels, t1, t2).count()

  /** T(u) for every node: the number of target edges incident to u.
    * Σ_u T(u) = 2F. Returns (node, t) including t = 0 rows.
    */
  def incidentTargetCounts(edges: DataFrame, labels: DataFrame, t1: Int, t2: Int): DataFrame = {
    val hits = targetEdges(edges, labels, t1, t2)
    val perEndpoint = hits.select(col("src") as "node")
      .union(hits.select(col("dst") as "node"))
      .groupBy("node").agg(count(lit(1)).cast(LongType) as "t")
    labels.select("node").join(perEndpoint, Seq("node"), "left")
      .select(col("node"), coalesce(col("t"), lit(0L)) as "t")
  }

  /** Count of edges per unordered label pair: (l1, l2, cnt) with l1 <= l2.
    * This is the table the paper sorts ascending and quartile-splits to pick
    * target labels.
    */
  def labelPairCounts(edges: DataFrame, labels: DataFrame): DataFrame = {
    labeledEdges(edges, labels)
      .select(
        least(col("lsrc"), col("ldst"))    as "l1",
        greatest(col("lsrc"), col("ldst")) as "l2",
      )
      .groupBy("l1", "l2").agg(count(lit(1)).cast(LongType) as "cnt")
  }

  /** Exact F = Σ_u T(u) / 2 computed locally from the CSR graph — the
    * cross-check used by the walk-side code and tests (must equal [[targetEdgeCount]]).
    */
  def targetEdgeCountLocal(g: CsrGraph, t1: Int, t2: Int): Long = {
    var sum = 0L
    var u = 0
    while (u < g.numNodes) { sum += g.targetEdgesAt(u, t1, t2); u += 1 }
    sum / 2
  }
}
