package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Bulk graph operations over canonical edge lists.
  *
  * Conventions: an *edge list* is a DataFrame (src: Long, dst: Long) with
  * `src < dst`, distinct rows, no self-loops (see [[canonicalize]]); a
  * *directed* edge list is its symmetrization (both orientations).
  */
object GraphOps {

  /** Canonical undirected form: drop self-loops, orient `src < dst`, dedupe. */
  def canonicalize(rawEdges: DataFrame): DataFrame = {
    rawEdges
      .where(col("src") =!= col("dst"))
      .select(
        least(col("src"), col("dst")).cast(LongType)    as "src",
        greatest(col("src"), col("dst")).cast(LongType) as "dst",
      )
      .distinct()
  }

  /** Both orientations of a canonical edge list: (u,v) and (v,u). */
  def symmetrize(edges: DataFrame): DataFrame = {
    edges.select(col("src") as "u", col("dst") as "v")
      .union(edges.select(col("dst") as "u", col("src") as "v"))
  }

  /** Per-node degree of a canonical edge list: (node, degree). */
  def degrees(edges: DataFrame): DataFrame = {
    symmetrize(edges).groupBy(col("u") as "node")
      .agg(count(lit(1)).cast(LongType) as "degree")
  }

  /** Largest connected component of a canonical edge list, with node ids
    * remapped to the contiguous range [0, |V_lcc|) (ascending by original
    * id, so the remap is deterministic). Returns (edges, nodeMap) where
    * nodeMap is (node, newId).
    *
    * The component comes from one union-find over the collected edge list:
    * the driver holds the graph anyway once it becomes a [[CsrGraph]]. Of
    * equal-size components the one holding the smallest node id is kept.
    * Only the sorted node array is local; the remapped edges are joined
    * from `edges`.
    */
  def largestComponent(spark: SparkSession, edges: DataFrame): (DataFrame, DataFrame) = {
    val es = edges.select("src", "dst").collect()
    val ids = es.flatMap(r => Array(r.getLong(0), r.getLong(1))).sorted
    var k = 0 // dedupe in place: the distinct endpoint ids are ids[0, k)
    ids.foreach { x => if (k == 0 || ids(k - 1) != x) { ids(k) = x; k += 1 } }
    def index(node: Long) = java.util.Arrays.binarySearch(ids, 0, k, node)
    // union-find over endpoint indices; a root is always its set's minimum
    val parent = Array.range(0, k)
    val size = Array.fill(k)(1)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }
      r
    }
    es.foreach { r =>
      val a = find(index(r.getLong(0))); val b = find(index(r.getLong(1)))
      if (a != b) {
        val (lo, hi) = if (a < b) (a, b) else (b, a)
        parent(hi) = lo; size(lo) += size(hi)
      }
    }
    // maxBy keeps the first maximum: the largest component with the smallest id
    val best = (0 until k).maxByOption(i => if (parent(i) == i) size(i) else 0)
    val keep = (0 until k).filter(i => best.contains(find(i))).map(ids).toArray
    // newId is a position in `keep`, so the plan holds only that primitive array
    val nodeAt = udf((i: Long) => keep(i.toInt))
    val nodeMap = spark.range(keep.length)
      .select(nodeAt(col("id")) as "node", col("id") as "newId")
    // keep is ascending, so the remap preserves src < dst
    val remapped = edges
      .join(nodeMap.withColumnRenamed("node", "src").withColumnRenamed("newId", "s2"), Seq("src"))
      .join(nodeMap.withColumnRenamed("node", "dst").withColumnRenamed("newId", "d2"), Seq("dst"))
      .select(col("s2") as "src", col("d2") as "dst")
    (remapped, nodeMap)
  }

  /** Remap a (node, label) DataFrame through the nodeMap from
    * [[largestComponent]], dropping nodes outside the component.
    */
  def remapLabels(labels: DataFrame, nodeMap: DataFrame): DataFrame = {
    labels.join(nodeMap, Seq("node"))
      .select(col("newId") as "node", col("label"))
  }
}
