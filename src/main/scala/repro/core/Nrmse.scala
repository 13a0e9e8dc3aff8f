package repro.core

import java.util.SplittableRandom

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baselines.LineGraphWalks
import repro.graph.CsrGraph

/** NRMSE experiment harness (paper Eq. 24).
  *
  * The walk itself is sequential; the parallel dimension is the paper's 200
  * independent simulations per table cell. The CSR graph is broadcast once
  * and an RDD of simulation indices fans the walks out across cores. The
  * estimates are collected once and NRMSE over (algorithm, budget) is
  * aggregated on the driver, in simulation order, so a grid does not depend
  * on how the simulations were partitioned.
  */
object Nrmse {

  /** The ten algorithms of Table 2 in the paper's row order. */
  val AllAlgorithms: Seq[String] = Seq(
    NeighborSample.HH, NeighborSample.HT,
    NeighborExploration.HH, NeighborExploration.HT, NeighborExploration.RW,
    LineGraphWalks.MDRW, LineGraphWalks.MHRW, LineGraphWalks.RW,
    LineGraphWalks.RCMH, LineGraphWalks.GMD,
  )

  /** One full simulation: every algorithm, independent RNG streams derived
    * from `seed`, one estimate per (algorithm, checkpoint).
    */
  def simulate(g: CsrGraph, t1: Int, t2: Int, checkpoints: Seq[Int],
               burnInSteps: Int, seed: Long): Seq[(String, Int, Double)] = {
    val root = new SplittableRandom(seed)
    // split() gives statistically independent streams per algorithm family
    val ns = NeighborSample.run(g, t1, t2, checkpoints, burnInSteps, root.split())
    val ne = NeighborExploration.run(g, t1, t2, checkpoints, burnInSteps, root.split())
    val ex = LineGraphWalks.defaultVariants.flatMap(v =>
      LineGraphWalks.run(g, v, t1, t2, checkpoints, burnInSteps, root.split()))
    ns ++ ne ++ ex
  }

  /** Simulations `0 until sims` as (sim, its (algorithm, k, estimate) rows),
    * run over a broadcast of `g`.
    */
  private def fanOut(spark: SparkSession, g: CsrGraph, t1: Int, t2: Int,
                     checkpoints: Seq[Int], burnInSteps: Int, sims: Int,
                     seedBase: Long): RDD[(Int, Seq[(String, Int, Double)])] = {
    require(sims > 0, s"sims must be positive, got $sims")
    val bc = spark.sparkContext.broadcast(g)
    val slices = math.min(sims, spark.sparkContext.defaultParallelism * 2)
    spark.sparkContext
      .parallelize(0 until sims, slices)
      .map(sim => sim -> simulate(bc.value, t1, t2, checkpoints, burnInSteps, seedBase + sim))
  }

  /** Raw estimates over `sims` independent simulations as a DataFrame
    * (algorithm, k, sim, estimate).
    */
  def estimates(spark: SparkSession, g: CsrGraph, t1: Int, t2: Int,
                checkpoints: Seq[Int], burnInSteps: Int, sims: Int,
                seedBase: Long): DataFrame = {
    import spark.implicits._
    fanOut(spark, g, t1, t2, checkpoints, burnInSteps, sims, seedBase)
      .flatMap { case (sim, rows) => rows.map { case (alg, k, est) => (alg, k, sim, est) } }
      .toDF("algorithm", "k", "sim", "estimate")
  }

  /** NRMSE(F̂) = sqrt(E[(F̂−F)²])/F per (algorithm, k) — paper Eq. 24 —
    * over (algorithm, k, estimate) rows, summed in row order.
    */
  private def aggregate(rows: Seq[(String, Int, Double)], f: Long): Map[String, Map[Int, Double]] = {
    require(f > 0, s"NRMSE divides by F, which must be positive, got $f")
    rows.groupMap(_._1)(r => r._2 -> r._3).map { case (alg, byK) =>
      alg -> byK.groupMap(_._1)(_._2).map { case (k, ests) =>
        k -> math.sqrt(ests.map(e => (e - f) * (e - f)).sum / ests.size) / f
      }
    }
  }

  /** [[aggregate]] over an (algorithm, k, sim, estimate) DataFrame, as
    * (algorithm, k, nrmse).
    */
  def nrmse(estimatesDf: DataFrame, f: Long): DataFrame = {
    val spark = estimatesDf.sparkSession
    import spark.implicits._
    val rows = estimatesDf.select("algorithm", "k", "estimate").collect()
      .map(r => (r.getString(0), r.getInt(1), r.getDouble(2)))
    val cells = for ((alg, byK) <- aggregate(rows.toSeq, f).toSeq; (k, v) <- byK) yield (alg, k, v)
    cells.toDF("algorithm", "k", "nrmse")
  }

  /** End-to-end: algorithm -> k -> NRMSE for table printing, from one Spark
    * job over the simulations.
    */
  def run(spark: SparkSession, g: CsrGraph, t1: Int, t2: Int,
          checkpoints: Seq[Int], burnInSteps: Int, sims: Int, f: Long,
          seedBase: Long = 42L): Map[String, Map[Int, Double]] = {
    val perSim = fanOut(spark, g, t1, t2, checkpoints, burnInSteps, sims, seedBase).collect()
    aggregate(perSim.toSeq.flatMap(_._2), f)
  }

  /** The paper's budget grid: k = {0.5%, 1.0%, …, 5.0%}·|V| (ceil, ≥1). */
  def paperCheckpoints(nV: Long): Seq[Int] =
    (1 to 10).map(j => math.max(1, math.ceil(nV * 0.005 * j).toInt)).distinct
}
