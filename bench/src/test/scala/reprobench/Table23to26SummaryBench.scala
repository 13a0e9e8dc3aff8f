package reprobench

import repro.exp.{Datasets, Tables}

/** Paper Tables 23–26: best algorithm and its NRMSE at 5%|V| per dataset
  * and label pair. Reuses the grids computed by the per-dataset benches
  * (same JVM); recomputes only if run stand-alone.
  */
class Table23to26SummaryBench extends BenchSupport {

  test("Table 23: best algorithms for facebook-lite and gplus-lite") {
    val tabs = Seq(
      grid(Datasets.facebook, dataset(Datasets.facebook).pairs.head),
      grid(Datasets.gplus, dataset(Datasets.gplus).pairs.head))
    show(Tables.renderSummary(tabs))
    tabs.foreach(t => assert(ours.contains(t.bestAtMax._1),
      s"${t.dataset}: best=${t.bestAtMax}"))
  }

  test("Table 24: best algorithms for pokec-lite") {
    val b = dataset(Datasets.pokec)
    val tabs = b.pairs.map(grid(Datasets.pokec, _))
    show(Tables.renderSummary(tabs))
    tabs.foreach(t => assert(ours.contains(t.bestAtMax._1), s"best=${t.bestAtMax}"))
  }

  test("Table 25: best algorithms for orkut-lite") {
    val b = dataset(Datasets.orkut)
    val tabs = b.pairs.map(grid(Datasets.orkut, _))
    show(Tables.renderSummary(tabs))
    tabs.foreach(t => assert(ours.contains(t.bestAtMax._1), s"best=${t.bestAtMax}"))
  }

  test("Table 26: best algorithms for livejournal-lite") {
    val b = dataset(Datasets.livejournal)
    val tabs = b.pairs.map(grid(Datasets.livejournal, _))
    show(Tables.renderSummary(tabs))
    tabs.foreach(t => assert(ours.contains(t.bestAtMax._1), s"best=${t.bestAtMax}"))
  }

  test("paper headline: the worst best-NRMSE across all tables stays moderate") {
    // Paper: "The largest NRMSE is 0.209 and most are smaller than 0.1."
    val all = Datasets.all.flatMap { spec =>
      dataset(spec).pairs.map(p => grid(spec, p))
    }
    val worst = all.map(_.bestAtMax._2).max
    show(f"worst best-of-table NRMSE at 5%%|V|: $worst%.3f (paper: 0.209)")
    // looser than the paper's 0.209: our absolute budgets are ~40x smaller
    // (budget = 5% of a much smaller |V|), see DESIGN.md §3.
    assert(worst < 0.8, s"worst=$worst — shape should hold at our scale")
  }
}
