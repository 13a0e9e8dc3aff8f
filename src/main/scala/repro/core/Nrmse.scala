package repro.core

import java.util.SplittableRandom

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baselines.LineGraphWalks
import repro.graph.CsrGraph

/** NRMSE experiment harness (paper Eq. 24).
  *
  * The walk itself is sequential; the parallel dimension is the paper's 200
  * independent simulations per table cell. An RDD of simulation indices
  * fans the walks out across cores over the CSR graph's one broadcast
  * ([[CsrGraph.broadcast]]), which every grid over that graph shares.
  * Each task runs its simulations as one batch, with the NeighborSample
  * walks in lockstep lanes. Each simulation ships its estimates as one
  * `Array[Double]` in a fixed cell layout: cell j is
  * (`AllAlgorithms(j / nK)`, `checkpoints(j % nK)`) over the nK strictly
  * ascending checkpoints. The driver computes each cell's NRMSE from its
  * column of the sims × cells matrix, in simulation order, so a grid does
  * not depend on how the simulations were partitioned.
  */
object Nrmse {

  /** The ten algorithms of Table 2 in the paper's row order. */
  val AllAlgorithms: Seq[String] = Seq(
    NeighborSample.HH, NeighborSample.HT,
    NeighborExploration.HH, NeighborExploration.HT, NeighborExploration.RW,
    LineGraphWalks.MDRW, LineGraphWalks.MHRW, LineGraphWalks.RW,
    LineGraphWalks.RCMH, LineGraphWalks.GMD,
  )

  /** The EX variants in their `root.split()` order, each with its row. */
  private val exRows: Array[(LineGraphWalks.Variant, Int)] =
    LineGraphWalks.defaultVariants.map(v => v -> AllAlgorithms.indexOf(v.name)).toArray

  /** One full simulation in the cell layout over the nK `checkpoints`: NS and NE
    * fill rows 0–4, each EX variant row `AllAlgorithms.indexOf(v.name)`, each on
    * its own RNG stream split from `seed` (NS, NE, then `defaultVariants` in order).
    */
  def simulate(g: CsrGraph, t1: Int, t2: Int, checkpoints: Seq[Int],
               burnInSteps: Int, seed: Long): Array[Double] =
    simulateBatch(g, t1, t2, checkpoints, burnInSteps, Array(seed))(0)

  /** `simulate` for each of `seeds`, in order: the NeighborSample walks of all
    * seeds run as lockstep lanes ([[NeighborSample.runLanes]]), the other
    * walkers one seed at a time. Each seed's root stream is split in
    * `simulate`'s order, so row s is `simulate(…, seeds(s))` bit for bit.
    */
  def simulateBatch(g: CsrGraph, t1: Int, t2: Int, checkpoints: Seq[Int],
                    burnInSteps: Int, seeds: Array[Long]): Array[Array[Double]] = {
    val nK = checkpoints.size
    val roots = seeds.map(new SplittableRandom(_))
    // split() gives statistically independent streams per algorithm family
    val ns = NeighborSample.runLanes(g, t1, t2, checkpoints, burnInSteps, roots.map(_.split()))
    Array.tabulate(roots.length) { s =>
      val ne = NeighborExploration.run(g, t1, t2, checkpoints, burnInSteps, roots(s).split())
      val out = ns(s) ++ ne ++ new Array[Double](exRows.length * nK)
      require(out.length == AllAlgorithms.size * nK, s"${out.length} estimates for ${AllAlgorithms.size * nK} cells")
      exRows.foreach { case (v, row) => System.arraycopy(
        LineGraphWalks.run(g, v, t1, t2, checkpoints, burnInSteps, roots(s).split()), 0, out, row * nK, nK) }
      out
    }
  }

  /** The sims × cells matrix of simulations `0 until sims` over `g`: row s
    * is simulation s's estimates in the cell layout. The arguments are
    * checked before `g` is broadcast, so a rejected grid makes no broadcast.
    * One Spark job runs the simulations over `g`'s own broadcast, one task
    * per core, each task its slice of seeds as one `simulateBatch`.
    */
  private def simulations(spark: SparkSession, g: CsrGraph, t1: Int, t2: Int,
                          checkpoints: Seq[Int], burnInSteps: Int, sims: Int,
                          seedBase: Long): Array[Array[Double]] = {
    require(sims > 0, s"sims must be positive, got $sims")
    Walks.requireSchedule(checkpoints, burnInSteps)
    val graph = g.broadcast(spark.sparkContext)
    val slices = math.min(sims, spark.sparkContext.defaultParallelism)
    spark.sparkContext
      .parallelize(0 until sims, slices)
      .mapPartitions(part => simulateBatch(graph.value, t1, t2, checkpoints, burnInSteps,
                                           part.map(seedBase + _).toArray).iterator)
      .collect()
  }

  /** Raw estimates over `sims` independent simulations as a local DataFrame
    * (algorithm, k, sim, estimate), in simulation order and the cell layout
    * within each simulation.
    */
  def estimates(spark: SparkSession, g: CsrGraph, t1: Int, t2: Int,
                checkpoints: Seq[Int], burnInSteps: Int, sims: Int,
                seedBase: Long): DataFrame = {
    import spark.implicits._
    val est = simulations(spark, g, t1, t2, checkpoints, burnInSteps, sims, seedBase)
    val ks = checkpoints.toIndexedSeq
    est.indices.flatMap { sim =>
      est(sim).indices.map(c => (AllAlgorithms(c / ks.size), ks(c % ks.size), sim, est(sim)(c)))
    }.toDF("algorithm", "k", "sim", "estimate")
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
    * job over the simulations on `g`'s broadcast.
    */
  def run(spark: SparkSession, g: CsrGraph, t1: Int, t2: Int,
          checkpoints: Seq[Int], burnInSteps: Int, sims: Int, f: Long,
          seedBase: Long = 42L): Map[String, Map[Int, Double]] = {
    requirePositive(f)
    val est = simulations(spark, g, t1, t2, checkpoints, burnInSteps, sims, seedBase)
    val nK = checkpoints.size
    AllAlgorithms.zipWithIndex.map { case (alg, a) =>
      alg -> checkpoints.zipWithIndex.map { case (k, j) =>
        k -> cellNrmse(sims, s => est(s)(a * nK + j), f)
      }.toMap
    }.toMap
  }

  /** The paper's budget grid: k = ⌈j·|V|/200⌉ for j = 1..10, i.e. {0.5%,
    * 1.0%, …, 5.0%}·|V| rounded up, in exact integer arithmetic.
    */
  def paperCheckpoints(nV: Long): Seq[Int] = {
    require(nV >= 1, s"a graph has at least one node, got |V| = $nV")
    (1 to 10).map(j => Math.toIntExact((Math.multiplyExact(nV, j.toLong) + 199) / 200)).distinct
  }
}
