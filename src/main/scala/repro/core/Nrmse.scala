package repro.core

import java.util.SplittableRandom

import scala.collection.mutable

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baselines.LineGraphWalks
import repro.graph.CsrGraph

/** NRMSE experiment harness (paper Eq. 24).
  *
  * The walk itself is sequential; the parallel dimension is the paper's 200
  * independent simulations per table cell. The CSR graph is broadcast once
  * and an RDD of simulation indices fans the walks out across cores. Each
  * simulation ships its estimates as one `Array[Double]` in a fixed cell
  * layout: cell j is (`AllAlgorithms(j / nK)`, `checkpoints(j % nK)`) over
  * the nK strictly ascending checkpoints. The driver computes each cell's
  * NRMSE from its column of the sims × cells matrix, in simulation order, so
  * a grid does not depend on how the simulations were partitioned.
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

  /** [[simulate]]'s rows written into the cell layout over budgets `ks`;
    * every cell must be written exactly once.
    */
  private def cells(rows: Seq[(String, Int, Double)], ks: Array[Int]): Array[Double] = {
    val out = new Array[Double](AllAlgorithms.size * ks.length)
    val written = new Array[Boolean](out.length)
    rows.foreach { case (alg, k, est) =>
      val a = AllAlgorithms.indexOf(alg)
      val j = java.util.Arrays.binarySearch(ks, k)
      require(a >= 0 && j >= 0, s"no cell for ($alg, $k)")
      val c = a * ks.length + j
      require(!written(c), s"($alg, $k) estimated twice in one simulation")
      written(c) = true
      out(c) = est
    }
    require(rows.size == out.length, s"${out.length - rows.size} cells not estimated")
    out
  }

  /** Simulations `0 until sims` as (sim, its estimates in the cell layout),
    * run over a broadcast of `g` that the caller destroys once it no longer
    * needs the RDD.
    */
  private def fanOut(spark: SparkSession, g: CsrGraph, t1: Int, t2: Int,
                     checkpoints: Seq[Int], burnInSteps: Int, sims: Int,
                     seedBase: Long): (Broadcast[CsrGraph], RDD[(Int, Array[Double])]) = {
    require(sims > 0, s"sims must be positive, got $sims")
    require(checkpoints.nonEmpty && checkpoints.head >= 1 &&
            checkpoints.lazyZip(checkpoints.tail).forall(_ < _),
      s"checkpoints must be strictly ascending and >= 1: $checkpoints")
    val ks = checkpoints.toArray
    val bc = spark.sparkContext.broadcast(g)
    val slices = math.min(sims, spark.sparkContext.defaultParallelism * 2)
    bc -> spark.sparkContext
      .parallelize(0 until sims, slices)
      .map(sim => sim -> cells(simulate(bc.value, t1, t2, checkpoints, burnInSteps, seedBase + sim), ks))
  }

  /** Raw estimates over `sims` independent simulations as a DataFrame
    * (algorithm, k, sim, estimate). The DataFrame is lazy and reads the
    * graph's broadcast whenever it is computed, so that broadcast is left
    * to Spark's `ContextCleaner`, not destroyed here.
    */
  def estimates(spark: SparkSession, g: CsrGraph, t1: Int, t2: Int,
                checkpoints: Seq[Int], burnInSteps: Int, sims: Int,
                seedBase: Long): DataFrame = {
    import spark.implicits._
    val (_, perSim) = fanOut(spark, g, t1, t2, checkpoints, burnInSteps, sims, seedBase)
    val ks = checkpoints.toIndexedSeq
    perSim
      .flatMap { case (sim, est) =>
        est.indices.map(c => (AllAlgorithms(c / ks.size), ks(c % ks.size), sim, est(c)))
      }
      .toDF("algorithm", "k", "sim", "estimate")
  }

  /** Paper Eq. 24 for one cell: sqrt(Σ (e − F)² / n) / F over its `n`
    * estimates `est(0 until n)`, summed from 0.0 in that order.
    */
  private def cellNrmse(n: Int, est: Int => Double, f: Long): Double = {
    var sum = 0.0
    var i = 0
    while (i < n) { val e = est(i); sum += (e - f) * (e - f); i += 1 }
    math.sqrt(sum / n) / f
  }

  private def requirePositive(f: Long): Unit =
    require(f > 0, s"NRMSE divides by F, which must be positive, got $f")

  /** NRMSE per (algorithm, k) over an (algorithm, k, sim, estimate)
    * DataFrame, each cell summed in row order, as (algorithm, k, nrmse).
    */
  def nrmse(estimatesDf: DataFrame, f: Long): DataFrame = {
    requirePositive(f)
    val spark = estimatesDf.sparkSession
    import spark.implicits._
    val byCell = mutable.LinkedHashMap.empty[(String, Int), mutable.ArrayBuffer[Double]]
    estimatesDf.select("algorithm", "k", "estimate").collect().foreach { r =>
      byCell.getOrElseUpdate((r.getString(0), r.getInt(1)), mutable.ArrayBuffer.empty) += r.getDouble(2)
    }
    byCell.toSeq.map { case ((alg, k), ests) => (alg, k, cellNrmse(ests.length, ests, f)) }
      .toDF("algorithm", "k", "nrmse")
  }

  /** End-to-end: algorithm -> k -> NRMSE for table printing, from one Spark
    * job over the simulations.
    */
  def run(spark: SparkSession, g: CsrGraph, t1: Int, t2: Int,
          checkpoints: Seq[Int], burnInSteps: Int, sims: Int, f: Long,
          seedBase: Long = 42L): Map[String, Map[Int, Double]] = {
    requirePositive(f)
    val (bc, perSim) = fanOut(spark, g, t1, t2, checkpoints, burnInSteps, sims, seedBase)
    val est = try perSim.values.collect() finally bc.destroy()
    val nK = checkpoints.size
    AllAlgorithms.zipWithIndex.map { case (alg, a) =>
      alg -> checkpoints.zipWithIndex.map { case (k, j) =>
        k -> cellNrmse(sims, s => est(s)(a * nK + j), f)
      }.toMap
    }.toMap
  }

  /** The paper's budget grid: k = {0.5%, 1.0%, …, 5.0%}·|V| (ceil, ≥1). */
  def paperCheckpoints(nV: Long): Seq[Int] = {
    require(nV >= 1, s"a graph has at least one node, got |V| = $nV")
    (1 to 10).map(j => math.max(1, math.ceil(nV * 0.005 * j).toInt)).distinct
  }
}
