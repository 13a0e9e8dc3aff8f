package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.{Bounds, GroundTruth, Nrmse}

/** Paper-style table production: runs the NRMSE grids and bounds for a
  * dataset and renders them in the layout of Tables 1 and 4–26. The bench
  * suites and `RunTables` print every table through these renderers.
  */
object Tables {

  /** One rendered NRMSE grid (one of Tables 4–17). */
  final case class NrmseTable(
      dataset: String, pair: Datasets.LabelPair, nE: Long,
      checkpoints: Seq[Int],
      results: Map[String, Map[Int, Double]],
  ) {
    def caption: String =
      f"${dataset}, target label=${label(pair)}, " +
      f"number of target edges=${pair.f}, percentage=${pair.pct(nE)}%.4f%%"

    /** NRMSE of `alg` at budget index j (0-based over checkpoints). */
    def at(alg: String, j: Int): Double = results(alg)(checkpoints(j))

    /** (algorithm, nrmse) with smallest NRMSE at the largest budget. */
    def bestAtMax: (String, Double) = {
      val k = checkpoints.last
      results.map { case (a, m) => a -> m(k) }.minBy(_._2)
    }

    def render: String = {
      val header = ("%-26s" format "algorithm") +
        checkpoints.indices.map(j => f"${0.5 * (j + 1)}%5.1f%%|V|").mkString(" ")
      val rows = Nrmse.AllAlgorithms.map { alg =>
        ("%-26s" format alg) +
          checkpoints.map(k => f"${results(alg)(k)}%9.3f").mkString(" ")
      }
      (caption +: header +: rows).mkString("\n")
    }
  }

  /** Run one NRMSE grid — the experiment behind one of Tables 4–17 — on
    * the dataset's shared broadcast of its graph, made only once the grid
    * passes its checks.
    */
  def nrmseTable(spark: SparkSession, built: Datasets.Built,
                 pair: Datasets.LabelPair, sims: Int,
                 seedBase: Long = 42L): NrmseTable = {
    val cps = Nrmse.paperCheckpoints(built.nV)
    Nrmse.requireGrid(cps, built.burnIn, sims)
    val results = Nrmse.runOn(spark, built.graphBroadcast(spark.sparkContext), pair.t1, pair.t2,
                              cps, built.burnIn, sims, pair.f, seedBase)
    NrmseTable(built.name, pair, built.nE, cps, results)
  }

  /** One row of Tables 18–22: the five Theorem 4.1–4.5 bounds for a pair
    * at ε = δ = 0.1, from d(u) and T(u) read off the CSR graph. `spark` is
    * unused but stays until perfbench's call to it narrows (ROADMAP item 4).
    */
  def boundsRow(@scala.annotation.unused spark: SparkSession, built: Datasets.Built,
                pair: Datasets.LabelPair): Bounds.SampleBounds = {
    val g = built.g
    Bounds.fromCounts(Array.tabulate(g.numNodes)(g.degree),
                      GroundTruth.incidentTargets(g, pair.t1, pair.t2),
                      built.nV, built.nE, pair.f, eps = 0.1, delta = 0.1)
  }

  private def label(p: Datasets.LabelPair): String = s"(${p.t1},${p.t2})"

  /** Table 1: each dataset's |V|, |E|, burn-in T(1e-3) and label pairs. */
  def renderStats(built: Seq[Datasets.Built]): String = {
    val header = "%-18s %8s %10s %8s  %s".format("dataset", "|V|", "|E|", "T(1e-3)", "pairs")
    val body = built.map { b =>
      "%-18s %8d %10d %8d  %s".format(b.name, b.nV, b.nE, b.burnIn, b.pairs.map(label).mkString(","))
    }
    ("Table 1: Statistics of datasets (synthetic stand-ins, largest connected components)" +:
      header +: body).mkString("\n")
  }

  /** One of Tables 18–22: a dataset's bounds, one row per label pair. */
  def renderBounds(dataset: String, rows: Seq[(Datasets.LabelPair, Bounds.SampleBounds)]): String = {
    val header = "%-10s %14s %14s %14s %14s %14s".format(
      "label", "NS-HH", "NS-HT", "NE-HH", "NE-HT", "NE-RW")
    val body = rows.map { case (p, b) =>
      "%-10s %14.3g %14.3g %14.3g %14.3g %14.3g".format(
        label(p), b.nsHH, b.nsHT, b.neHH, b.neHT, b.neRW)
    }
    (s"Bounds on the number of samples in $dataset (eps=delta=0.1)" +: header +: body)
      .mkString("\n")
  }

  /** One of Tables 23–26: the best algorithm and its NRMSE at 5%|V| for
    * each grid, titled by the grids' datasets.
    */
  def renderSummary(tables: Seq[NrmseTable]): String = {
    val title = s"Best algorithm for ${tables.map(_.dataset).distinct.mkString(" and ")} using 5%|V| API calls"
    val header = "%-12s %-28s %8s".format("label", "best algorithm", "NRMSE")
    val body = tables.map { t =>
      val (alg, v) = t.bestAtMax
      "%-12s %-28s %8.3f".format(label(t.pair), alg, v)
    }
    (title +: header +: body).mkString("\n")
  }
}
