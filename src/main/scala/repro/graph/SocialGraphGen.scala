package repro.graph

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic labeled social-network generator (stand-in for the SNAP/KONECT
  * datasets of the paper, which are unreachable offline).
  *
  * Graphs are Chung-Lu style: each endpoint of each candidate edge is drawn
  * independently from a power-law rank distribution via a closed-form
  * inverse CDF, so the whole edge list is one Catalyst projection. The
  * result has heavy-tailed degrees, a giant connected component and a small
  * diameter — the structural properties the paper's random-walk estimators
  * are sensitive to (see DESIGN.md §3).
  *
  * Output edge lists are canonicalized: undirected, no self-loops, no
  * multi-edges, `src < dst`, deterministic in `(n, candidateEdges, seed)`.
  */
object SocialGraphGen {

  /** A draw on [x0, x1] with density ∝ x^(-a): the inverse CDF of `rand(seed)`. */
  private def inverseCdf(x0: Double, x1: Double, a: Double, seed: Long): Column = {
    val lo = math.pow(x0, 1.0 - a)
    val hi = math.pow(x1, 1.0 - a)
    pow(rand(seed) * (hi - lo) + lo, 1.0 / (1.0 - a))
  }

  /** Power-law endpoint draw: node rank r in [0, n) with P(r) ∝ (r+i0)^(-a).
    *
    * Uses the continuous inverse CDF of the density (x+i0)^(-a) on [0,n];
    * `a` in (0,1) corresponds to a degree-distribution exponent γ = 1 + 1/a.
    * a≈0.67 gives γ≈2.5, typical for OSNs.
    */
  private def powerLawRank(n: Long, a: Double, i0: Double, seed: Long) = {
    require(a != 1.0, "alpha = 1 is singular: every endpoint would map to node 0")
    val cont = inverseCdf(i0, n + i0, a, seed) - i0
    least(lit(n - 1), greatest(lit(0L), cont.cast(LongType)))
  }

  /** Raw candidate edges before canonicalization: `m` rows of (src, dst). */
  def candidateEdges(spark: SparkSession, n: Long, m: Long, alpha: Double,
                     i0: Double, seed: Long): DataFrame = {
    spark.range(m).select(
      powerLawRank(n, alpha, i0, seed)     as "src",
      powerLawRank(n, alpha, i0, seed + 1) as "dst",
    )
  }

  /** A canonical undirected edge list (`src < dst`, distinct, no loops).
    *
    * `m` candidate draws yield somewhat fewer final edges (loops and
    * duplicates are dropped); callers read the achieved `|E|` off the result.
    */
  def edges(spark: SparkSession, n: Long, m: Long, alpha: Double = 0.67,
            i0: Double = 10.0, seed: Long = 7): DataFrame =
    GraphOps.canonicalize(candidateEdges(spark, n, m, alpha, i0, seed))

  /** Two-valued "gender" labels, `frac1` of nodes labeled 1, rest 2. */
  def genderLabels(spark: SparkSession, n: Long, frac1: Double, seed: Long): DataFrame = {
    spark.range(n).select(
      col("id") as "node",
      when(rand(seed) < frac1, lit(1)).otherwise(lit(2)) as "label",
    )
  }

  /** Zipf "location" labels over `nLabels` values: P(label=l) ∝ l^(-s).
    *
    * Mirrors Pokec's highly skewed location frequencies; labels are
    * 1-based integers as in the paper's Table 3. The draw is the endpoint
    * draw's continuous inverse CDF, floored, which keeps the skew shape.
    */
  def zipfLabels(spark: SparkSession, n: Long, nLabels: Int, s: Double, seed: Long): DataFrame = {
    require(s != 1.0, "s = 1 is singular: every node would get label 1")
    val cont = inverseCdf(1.0, nLabels + 1.0, s, seed)
    spark.range(n).select(
      col("id") as "node",
      least(lit(nLabels), greatest(lit(1), cont.cast(IntegerType))) as "label",
    )
  }

  /** Degree-derived labels: the node degree itself, exactly the paper's
    * "node degree is considered as the node label" on Orkut/LiveJournal.
    * High-degree labels form singleton classes and are filtered out of the
    * quartile pair selection by its minimum-count threshold, so selected
    * target labels are moderate degrees — as in the paper's pairs.
    */
  def degreeLabels(degrees: DataFrame): DataFrame = {
    degrees.select(
      col("node"),
      col("degree").cast(IntegerType) as "label",
    )
  }
}
