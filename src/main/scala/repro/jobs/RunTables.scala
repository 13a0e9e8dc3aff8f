package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.{Datasets, Tables}

/** spark-submit entrypoint for the paper tables (`jobs/run_table.sh`).
  *
  * Usage: `RunTables [stats|bounds|summary|<dataset>|all] [sims]` where
  * `<dataset>` ∈ {facebook, gplus, pokec, orkut, livejournal} prints that
  * dataset's NRMSE grids (Tables 4, 5, 6–9, 10–13, 14–17 respectively),
  * `stats` prints Table 1, `bounds` Tables 18–22, `summary` Tables 23–26
  * and `all` every one of them.
  */
object RunTables {

  /** The Spark settings every table runs under; the test suites share them.
    * The master is the one `spark-submit --master` set, else `local[*]`.
    */
  private[repro] def session(): SparkSession = SparkSession.builder()
    .master(sys.props.getOrElse("spark.master", "local[*]"))
    .appName("repro-tables")
    .config("spark.sql.shuffle.partitions", "64")
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .getOrCreate()

  def main(args: Array[String]): Unit = {
    val group = args.headOption.getOrElse("all")
    val sims = args.lift(1).map(_.toInt).getOrElse(200)
    val spark = session()
    try print(render(spark, group, Datasets.all, sims))
    finally spark.stop()
  }

  /** The tables of `group` over `specs`, a dataset group being a spec's
    * name without its `-lite` suffix. Each selected spec is built once and
    * each of its (spec, pair) grids is run once.
    */
  def render(spark: SparkSession, group: String, specs: Seq[Datasets.Spec], sims: Int): String = {
    val byName = specs.map(s => s.name.stripSuffix("-lite") -> s)
    val groups = Seq("stats", "bounds", "summary", "all") ++ byName.map(_._1)
    require(groups.contains(group), s"unknown group '$group'; expected one of ${groups.mkString(", ")}")
    val built = byName.toMap.get(group).fold(specs)(Seq(_)).map(Datasets.build(spark, _))
    lazy val grids = built.map(b => b.pairs.map(Tables.nrmseTable(spark, b, _, sims)))
    def stats = Seq(Tables.renderStats(built))
    def nrmse = grids.flatten.map(_.render)
    def bounds = built.map(b =>
      Tables.renderBounds(b.name, b.pairs.map(p => p -> Tables.boundsRow(spark, b, p))))
    def summary = grids.map(Tables.renderSummary)
    val sections = group match {
      case "stats"   => stats
      case "bounds"  => bounds
      case "summary" => summary
      case "all"     => stats ++ nrmse ++ bounds ++ summary
      case _         => nrmse
    }
    sections.map(_ + "\n\n").mkString
  }
}
