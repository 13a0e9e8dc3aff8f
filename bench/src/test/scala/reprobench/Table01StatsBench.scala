package reprobench

import repro.TestGraphs
import repro.core.Nrmse
import repro.exp.{Datasets, Tables}

/** Paper Tables 1–3: dataset statistics, algorithm roster, label frequencies.
  *
  * Also builds the datasets for the NRMSE benches that follow.
  */
class Table01StatsBench extends BenchSupport {

  test("Table 1: statistics of the (stand-in) datasets") {
    val built = Datasets.all.map(dataset)
    show(Tables.renderStats(built))
    built.foreach { b =>
      assert(b.nV > 1000, "stand-in must be non-trivial")
      assert(b.nE > b.nV, "social graphs are denser than trees")
    }
  }

  test("every dataset LCC is actually connected") {
    Datasets.all.foreach { spec =>
      val b = dataset(spec)
      val comp = TestGraphs.unionFindComponents(b.g.numNodes, TestGraphs.edgeList(b.g))
      assert(comp.toSet.size == 1, s"${b.name} LCC must be one component")
    }
  }

  test("degree distributions are heavy-tailed like the paper's OSNs") {
    Datasets.all.foreach { spec =>
      val b = dataset(spec)
      val avg = 2.0 * b.nE / b.nV
      assert(b.g.maxDegree > 10 * avg,
        s"${b.name}: maxDegree=${b.g.maxDegree} avg=$avg — not heavy-tailed")
    }
  }

  test("mixing times are small, as the paper reports (3200/200/100/800/900)") {
    Datasets.all.foreach { spec =>
      val b = dataset(spec)
      assert(b.burnIn > 0 && b.burnIn < 1000, s"${b.name}: T=${b.burnIn}")
    }
  }

  test("Table 2: the ten algorithm abbreviations") {
    show("Table 2: Algorithms\n" + Nrmse.AllAlgorithms.mkString("\n"))
    assert(Nrmse.AllAlgorithms.size == 10)
  }

  test("Table 3 analog: pokec-lite target labels and their frequencies") {
    val b = dataset(Datasets.pokec)
    val rows = b.pairs.map { p =>
      "%-10s F=%8d  %8.4f%%".format(s"(${p.t1},${p.t2})", p.f, p.pct(b.nE))
    }
    show("Table 3 analog: pokec-lite selected target edge labels\n" + rows.mkString("\n"))
    // the quartile procedure must span rare to common (the spread is
    // narrower than the paper's 20x because the count floor trims the tail
    // our budget cannot resolve — DESIGN.md §3)
    assert(b.pairs.last.f > 2 * b.pairs.head.f,
      s"expected a spread of frequencies: ${b.pairs.map(_.f)}")
  }
}
