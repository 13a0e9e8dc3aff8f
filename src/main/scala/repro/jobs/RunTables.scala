package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.{Datasets, Tables}

/** spark-submit entrypoints, one per paper table group (see the shell
  * wrappers under jobs/).
  *
  * Usage: `RunTables [stats|bounds|summary|<dataset>|all] [sims]` where
  * `<dataset>` ∈ {facebook, gplus, pokec, orkut, livejournal} prints that
  * dataset's NRMSE grids (Tables 4, 5, 6–9, 10–13, 14–17 respectively),
  * `stats` prints Table 1, `bounds` Tables 18–22 and `summary` Tables 23–26.
  */
object RunTables {

  private def session(): SparkSession = SparkSession.builder()
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName("repro-tables")
    .config("spark.sql.shuffle.partitions", "64")
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .getOrCreate()

  private val byName = Map(
    "facebook" -> Datasets.facebook, "gplus" -> Datasets.gplus,
    "pokec" -> Datasets.pokec, "orkut" -> Datasets.orkut,
    "livejournal" -> Datasets.livejournal)

  def main(args: Array[String]): Unit = {
    val what = args.headOption.getOrElse("all")
    val sims = args.lift(1).map(_.toInt).getOrElse(200)
    val spark = session()
    try {
      what match {
        case "stats"   => stats(spark)
        case "bounds"  => bounds(spark)
        case "summary" => summary(spark, sims)
        case "all"     =>
          stats(spark); byName.keys.toSeq.sorted.foreach(nrmse(spark, _, sims)); bounds(spark)
        case ds        => nrmse(spark, ds, sims)
      }
    } finally spark.stop()
  }

  private def stats(spark: SparkSession): Unit = {
    println("Table 1: Statistics of Datasets (largest connected components)")
    Datasets.all.foreach { spec =>
      val b = Datasets.build(spark, spec)
      println(f"${b.name}%-18s |V|=${b.nV}%8d |E|=${b.nE}%10d mixingTime(T(1e-3))=${b.burnIn}")
    }
  }

  private def nrmse(spark: SparkSession, ds: String, sims: Int): Unit = {
    val b = Datasets.build(spark, byName(ds))
    b.pairs.foreach { p =>
      println(Tables.nrmseTable(spark, b, p, sims).render); println()
    }
  }

  private def bounds(spark: SparkSession): Unit = {
    println("Tables 18-22: sample-size bounds for a (0.1,0.1)-approximation")
    Datasets.all.foreach { spec =>
      val b = Datasets.build(spark, spec)
      println(Tables.renderBounds(b.name, b.pairs.map(p => p -> Tables.boundsRow(spark, b, p))))
      println()
    }
  }

  private def summary(spark: SparkSession, sims: Int): Unit = {
    Datasets.all.foreach { spec =>
      val b = Datasets.build(spark, spec)
      val tabs = b.pairs.map(p => Tables.nrmseTable(spark, b, p, sims))
      println(Tables.renderSummary(
        s"Best algorithm for ${b.name} using 5%|V| API calls", tabs))
      println()
    }
  }
}
