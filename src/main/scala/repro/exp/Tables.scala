package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.{Bounds, Nrmse}

/** Paper-style table production: runs the NRMSE grids and bounds for a
  * dataset and renders rows in the layout of Tables 4–26.
  */
object Tables {

  /** One rendered NRMSE grid (one of Tables 4–17). */
  final case class NrmseTable(
      dataset: String, pair: Datasets.LabelPair, nE: Long,
      checkpoints: Seq[Int],
      results: Map[String, Map[Int, Double]],
  ) {
    def caption: String =
      f"${dataset}, target label=(${pair.t1},${pair.t2}), " +
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

  /** Run one NRMSE grid — the experiment behind one of Tables 4–17. */
  def nrmseTable(spark: SparkSession, built: Datasets.Built,
                 pair: Datasets.LabelPair, sims: Int = 200,
                 seedBase: Long = 42L): NrmseTable = {
    val cps = Nrmse.paperCheckpoints(built.nV)
    val results = Nrmse.run(spark, built.g, pair.t1, pair.t2, cps,
                            built.burnIn, sims, pair.f, seedBase)
    NrmseTable(built.name, pair, built.nE, cps, results)
  }

  /** One row of Tables 18–22: the five Theorem 4.1–4.5 bounds for a pair,
    * from d(u) and T(u) read off the CSR graph.
    */
  def boundsRow(spark: SparkSession, built: Datasets.Built,
                pair: Datasets.LabelPair,
                eps: Double = 0.1, delta: Double = 0.1): Bounds.SampleBounds = {
    val g = built.g
    Bounds.fromCounts(Array.tabulate(g.numNodes)(g.degree),
                      Array.tabulate(g.numNodes)(g.targetEdgesAt(_, pair.t1, pair.t2)),
                      built.nV, built.nE, pair.f, eps, delta)
  }

  def renderBounds(dataset: String, rows: Seq[(Datasets.LabelPair, Bounds.SampleBounds)]): String = {
    val header = "%-10s %14s %14s %14s %14s %14s".format(
      "label", "NS-HH", "NS-HT", "NE-HH", "NE-HT", "NE-RW")
    val body = rows.map { case (p, b) =>
      "%-10s %14.3g %14.3g %14.3g %14.3g %14.3g".format(
        s"(${p.t1},${p.t2})", b.nsHH, b.nsHT, b.neHH, b.neHT, b.neRW)
    }
    (s"Bounds on the number of samples in $dataset (eps=delta=0.1)" +: header +: body)
      .mkString("\n")
  }

  /** One of Tables 23–26: the best algorithm and its NRMSE at 5%|V|. */
  def renderSummary(title: String, tables: Seq[NrmseTable]): String = {
    val header = "%-12s %-28s %8s".format("label", "best algorithm", "NRMSE")
    val body = tables.map { t =>
      val (alg, v) = t.bestAtMax
      "%-12s %-28s %8.3f".format(s"(${t.pair.t1},${t.pair.t2})", alg, v)
    }
    (title +: header +: body).mkString("\n")
  }
}
