package reprobench

import scala.collection.mutable

import repro.SparkSpec
import repro.exp.{Datasets, Tables}

/** Shared machinery for the table benches.
  *
  * All suites run in one forked JVM (`Test / parallelExecution := false`), so
  * datasets and NRMSE grids, both held here, are each computed once even
  * though several suites consume them — the summary bench reuses the grids
  * produced by the per-dataset benches.
  *
  * `BENCH_SIMS` overrides the paper's 200 simulations per cell (useful for a
  * quick smoke run).
  */
trait BenchSupport extends SparkSpec {

  /** Simulations per table cell; the paper uses 200. */
  lazy val sims: Int = sys.env.getOrElse("BENCH_SIMS", "200").toInt

  /** The dataset of `spec`, built once per JVM. */
  def dataset(spec: Datasets.Spec): Datasets.Built =
    BenchSupport.datasets.synchronized {
      BenchSupport.datasets.getOrElseUpdate(spec, Datasets.build(spark, spec))
    }

  /** NRMSE grid for (dataset, pair), computed once per JVM. */
  def grid(spec: Datasets.Spec, pair: Datasets.LabelPair): Tables.NrmseTable =
    BenchSupport.gridCache.synchronized {
      BenchSupport.gridCache.getOrElseUpdate((spec.name, pair.t1, pair.t2), {
        val t0 = System.nanoTime()
        val t = Tables.nrmseTable(spark, dataset(spec), pair, sims)
        info(f"computed ${spec.name}(${pair.t1},${pair.t2}) in ${(System.nanoTime() - t0) / 1e9}%.1f s")
        t
      })
    }

  /** Our five proposed algorithms / the five EX baselines. */
  val ours: Seq[String] = repro.core.Nrmse.AllAlgorithms.take(5)
  val baselines: Seq[String] = repro.core.Nrmse.AllAlgorithms.drop(5)

  def bestOf(t: Tables.NrmseTable, algs: Seq[String]): (String, Double) = {
    val k = t.checkpoints.last
    algs.map(a => a -> t.results(a)(k)).minBy(_._2)
  }

  /** Print a rendered table to stdout, followed by a blank line. */
  def show(s: String): Unit = { println(s); println() }
}

object BenchSupport {
  private val datasets = mutable.Map.empty[Datasets.Spec, Datasets.Built]
  private val gridCache = mutable.Map.empty[(String, Int, Int), Tables.NrmseTable]
}
