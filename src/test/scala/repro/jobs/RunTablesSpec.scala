package repro.jobs

import repro.SparkSpec
import repro.exp.{Datasets, Tables, TinySpecs}

class RunTablesSpec extends SparkSpec {

  private val specs = Seq(TinySpecs.gender, TinySpecs.zipf, TinySpecs.deg)
  private val sims = 10

  test("all renders Tables 1, 4-17, 18-22 and 23-26 through the shared renderers") {
    val out = RunTables.render(spark, "all", specs, sims)
    val built = specs.map(Datasets.build(spark, _))
    assert(out.contains(Tables.renderStats(built)))
    built.foreach { b =>
      val grids = b.pairs.map(Tables.nrmseTable(spark, b, _, sims))
      grids.foreach(t => assert(out.contains(t.render), t.caption))
      assert(out.contains(Tables.renderBounds(b.name, b.pairs.map(p => p -> Tables.boundsRow(spark, b, p)))))
      assert(out.contains(Tables.renderSummary(grids)), b.name)
    }
  }

  test("an unknown group fails with the valid groups") {
    val e = intercept[IllegalArgumentException](RunTables.render(spark, "nope", specs, sims))
    assert(e.getMessage.contains("tiny-gender") && e.getMessage.contains("stats"), e.getMessage)
  }
}
