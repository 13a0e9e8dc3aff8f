package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.graph.CsrGraph

/** Exact quantities the experiments are measured against, in the
  * experimenter's full view of the graph rather than the restricted API.
  *
  * T(u), the per-node incident target counts, and F = Σ_u T(u) / 2 are read
  * off the CSR graph with the walkers' own target test
  * ([[CsrGraph.targetEdgesAt]]); the DataFrame entry points collect their
  * input into a CSR graph first. The label-pair frequency table that the
  * paper's quartile target labels are picked from is a Spark aggregation.
  * All are checked against DuckDB in tests.
  */
object GroundTruth {

  /** Edge list joined with both endpoint labels: (src, dst, lsrc, ldst). */
  private def labeledEdges(edges: DataFrame, labels: DataFrame): DataFrame = {
    edges
      .join(labels.withColumnRenamed("node", "src").withColumnRenamed("label", "lsrc"), Seq("src"))
      .join(labels.withColumnRenamed("node", "dst").withColumnRenamed("label", "ldst"), Seq("dst"))
  }

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

  /** T(u) of every node of `g`, indexed by node id. */
  def incidentTargets(g: CsrGraph, t1: Int, t2: Int): Array[Int] =
    Array.tabulate(g.numNodes)(g.targetEdgesAt(_, t1, t2))

  /** F = Σ_u T(u) / 2 on the CSR graph. */
  def targetEdgeCountLocal(g: CsrGraph, t1: Int, t2: Int): Long =
    incidentTargets(g, t1, t2).foldLeft(0L)(_ + _) / 2
}
