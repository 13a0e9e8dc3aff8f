package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import java.security.MessageDigest
import java.util.SplittableRandom

import scala.collection.mutable
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.baselines.LineGraphWalks
import repro.core.{Bounds, GroundTruth, MixingTime, NeighborExploration, NeighborSample, Nrmse}
import repro.exp.{Datasets, Tables}
import repro.exp.Datasets.{Built, LabelPair, Spec}
import repro.graph.{CsrGraph, GraphOps, SocialGraphGen}

/** The repository benchmark: one workload per JVM run.
  *
  * Usage: `Bench --workload build|grid|walk --seed N --seconds S
  * --trace 0|1 [--record FILE]`. Set-up (SparkSession, warm-up, dataset
  * builds) is followed by a closed-loop measured pass of whole rounds of
  * operations lasting at least `--seconds`; every operation's output is
  * checked after the pass. The last stdout line is one JSON object with
  * the end-to-end metrics (`--trace 0`) or the per-layer metrics
  * (`--trace 1`). See perfbench/README.md for the workloads and metrics.
  */
object Bench {

  /** Bench-scale datasets: the `Datasets` specs with |V| and the candidate
    * edge count divided by this factor, so that set-up fits one run.
    */
  val Scale = 4
  val Sims = 200
  /** Simulations per cell for the single-threaded baseline. */
  val BaselineSims = 20
  /** Simulations per walker for the single-threaded walker rates. */
  val WalkerSims = 5
  /** |V| of real Pokec: `walk` uses the paper's absolute budget grid. */
  val PaperPokecNodes = 1600000L

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        record: Option[String])

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "record")
    require(args.length % 2 == 0 && m.size * 2 == args.length && m.keySet.subsetOf(known),
            s"usage: --workload W --seed N --seconds S --trace 0|1 [--record FILE]; got ${args.mkString(" ")}")
    val o = Opts(m.getOrElse("workload", ""), m.getOrElse("seed", "0").toLong,
                 m.getOrElse("seconds", "8").toDouble, m.getOrElse("trace", "0") == "1", m.get("record"))
    require(Workloads.contains(o.workload), s"unknown workload '${o.workload}'")
    require(o.seconds > 0 && o.seed >= 0, "seconds must be > 0 and seed >= 0")
    o
  }

  val Workloads = Seq("build", "grid", "walk")

  def main(args: Array[String]): Unit = {
    val mainNanos = System.nanoTime()
    val uptimeAtMain = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    def sinceStart: Double = uptimeAtMain + (System.nanoTime() - mainNanos) / 1e9
    val opts = parse(args)
    val cores = Runtime.getRuntime.availableProcessors

    val t0 = System.nanoTime()
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val sessionS = (System.nanoTime() - t0) / 1e9
    val counters = if (opts.trace) Some(SparkCounters.register(spark.sparkContext)) else None

    try {
      val ctx = new Ctx(spark, opts.seed, cores)
      val w: Workload[_] = opts.workload match {
        case "build"  => new BuildWorkload(ctx)
        case "grid"   => new GridWorkload(ctx, paperBudgets = false)
        case "walk"   => new GridWorkload(ctx, paperBudgets = true)
      }
      val t1 = System.nanoTime()
      w.setup()
      val warmupS = (System.nanoTime() - t1) / 1e9
      val setupS = sinceStart
      val report = w.measure(opts.seconds)
      val tracer = counters.map(c => new Tracer(c, cores))
      tracer.foreach { tr => w.tracedPass(tr); w.sweep(tr) }

      val endToEnd = Seq(
        ("setup_s", setupS, "s"),
        ("op_p50_s", report.p50, "s"),
        ("ops_per_s", report.ops / report.passS, "1/s"),
        ("heap_retained_mb", report.heapRetainedMb, "MB"),
        ("ok_frac", (report.ops - report.failed).toDouble / report.ops, "frac"),
      )
      val metrics = tracer match {
        case None => endToEnd
        case Some(tr) =>
          Layers.metrics(tr, w, report.p50) ++ Seq(("spark.session.s", sessionS, "s"), ("warmup.s", warmupS, "s"))
      }
      val attempted = report.ops + w.tracedOps
      val failed = report.failed + w.tracedFailed
      val problems = report.problems ++ w.tracedProblems
      problems.take(20).foreach(p => Console.err.println(s"[perfbench] check failed: $p"))

      val tail = Stats.tail(report.opTimes)
      val record = Json.obj(
        "workload" -> Json.str(opts.workload), "seed" -> Json.num(opts.seed.toDouble),
        "seconds" -> Json.num(opts.seconds), "trace" -> Json.bool(opts.trace),
        "config" -> ctx.configJson,
        "datasets" -> Json.arr(ctx.builtStats),
        "op_times_s" -> Json.arr(report.opTimes.map(Json.num)),
        "op_tail" -> tail.fold("null") { case (p, v) => Json.obj("percentile" -> Json.num(p), "s" -> Json.num(v)) },
        "grid_digests" -> Json.obj(w.digests.toSeq.map { case (k, v) => k -> Json.str(v) }: _*),
        "problems" -> Json.arr(problems.map(Json.str)),
        "metrics" -> Json.obj(metrics.map { case (n, v, u) => n -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(u)) }: _*),
      )
      opts.record.foreach(f => Files.write(Paths.get(f), record.getBytes(StandardCharsets.UTF_8)))

      println(f"[perfbench] ${opts.workload} seed=${opts.seed} ops=${report.ops} failed=${report.failed} " +
              f"setup=${setupS}%.2fs p50=${report.p50}%.3fs pass=${report.passS}%.2fs total=${sinceStart}%.2fs")
      println(Json.obj(
        "correct" -> Json.bool(failed == 0),
        "attempted" -> attempted.toString,
        "failed" -> failed.toString,
        "metrics" -> Json.obj(metrics.map { case (n, v, u) => n -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(u)) }: _*),
      ))
    } finally spark.stop()
  }

  /** Shared per-run state: the session, seed-derived inputs, and the run
    * record's configuration and graph statistics.
    */
  final class Ctx(val spark: SparkSession, val seed: Long, val cores: Int) {
    /** Simulation seed base: `Tables`' default 42 at seed 0. */
    val seedBase: Long = 42L + 1000003L * seed
    private val built = mutable.ArrayBuffer.empty[Built]

    /** A bench-scale, seed-offset, uniquely named copy of `spec`. The new
      * name bypasses the per-name cache in [[Datasets.build]].
      */
    def spec(base: Spec, tag: String): Spec =
      base.copy(name = s"${base.name}/$tag", n = base.n / Scale,
                candidateEdges = base.candidateEdges / Scale, seed = base.seed + 10000L * seed)

    def build(s: Spec): Built = { val b = Datasets.build(spark, s); built += b; b }
    def noteBuilt(b: Built): Unit = built += b

    def builtStats: Seq[String] = built.distinctBy(_.name).map { b =>
      Json.obj("name" -> Json.str(b.name), "nV" -> Json.num(b.nV.toDouble), "nE" -> Json.num(b.nE.toDouble),
               "max_degree" -> Json.num(b.g.maxDegree.toDouble), "burn_in" -> Json.num(b.burnIn.toDouble),
               "pairs" -> Json.arr(b.pairs.map(p => Json.obj("t1" -> Json.num(p.t1), "t2" -> Json.num(p.t2),
                                                              "F" -> Json.num(p.f.toDouble)))))
    }.toSeq

    def configJson: String = {
      val sc = spark.sparkContext
      Json.obj(
        "master" -> Json.str(sc.master),
        "default_parallelism" -> Json.num(sc.defaultParallelism),
        "shuffle_partitions" -> Json.str(spark.conf.get("spark.sql.shuffle.partitions")),
        "driver_max_heap_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1048576.0),
        "nproc" -> Json.num(cores),
        "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
        "spark" -> Json.str(spark.version),
        "git_sha" -> Json.str(sys.props.getOrElse("perfbench.gitSha", "unknown")),
        "source_digest" -> Json.str(sys.props.getOrElse("perfbench.sourceDigest", "unknown")),
        "seed" -> Json.num(seed.toDouble), "seed_default" -> Json.num(0),
        "sim_seed_base" -> Json.num(seedBase.toDouble), "sims" -> Json.num(Sims), "scale" -> Json.num(Scale),
      )
    }
  }

  final case class Report(opTimes: Seq[Double], passS: Double, failed: Int, heapRetainedMb: Double,
                          problems: Seq[String]) {
    def ops: Int = opTimes.length
    def p50: Double = Stats.median(opTimes)
  }

  /** One workload: a round of `cells` operations, an output check per
    * operation, and the traced variants used by the per-layer run.
    */
  abstract class Workload[R](val ctx: Ctx) {
    def setup(): Unit
    def cells: Int
    def op(i: Int): R
    /** Problems found in op `i`'s output (`traced` for the traced pass's
      * op `i`); empty when correct.
      */
    def check(i: Int, r: R, traced: Boolean): Seq[String]
    /** The op re-composed from module calls, each inside a span. */
    def tracedOp(i: Int, tr: Tracer): R
    /** Name of the span that wraps one traced op. */
    def opSpan: String
    /** Releases what earlier ops cached, once their outputs are checked. */
    def afterChecks(): Unit = ()

    val digests = mutable.LinkedHashMap.empty[String, String]
    var tracedOps = 0
    var tracedFailed = 0
    val tracedProblems = mutable.ArrayBuffer.empty[String]

    final def measure(seconds: Double): Report = {
      val times = mutable.ArrayBuffer.empty[Double]
      val results = mutable.ArrayBuffer.empty[Try[R]]
      val start = System.nanoTime()
      def elapsed = (System.nanoTime() - start) / 1e9
      var i = 0
      while (i == 0 || i % cells != 0 || elapsed < seconds) {
        val t0 = System.nanoTime()
        results += Try(op(i))
        times += (System.nanoTime() - t0) / 1e9
        i += 1
      }
      val passS = elapsed
      val heap = Stats.heapAfterGcMb()
      val problems = results.zipWithIndex.flatMap { case (r, j) => verify(j, r) }
      afterChecks()
      Report(times.toSeq, passS, results.indices.count(j => verify(j, results(j)).nonEmpty), heap, problems.toSeq)
    }

    private val verified = mutable.Map.empty[Int, Seq[String]]
    private def verify(i: Int, r: Try[R]): Seq[String] = verified.getOrElseUpdate(i, r match {
      case Success(v) => Try(check(i, v, traced = false)).fold(e => Seq(s"op $i check threw $e"), identity)
      case Failure(e) => Seq(s"op $i threw $e")
    })

    /** One traced round; its outputs are checked like the measured ones. */
    final def tracedPass(tr: Tracer): Unit = (0 until cells).foreach { i =>
      attempt(s"traced op $i")(Try(tracedOp(i, tr)).flatMap(r => Try(check(i, r, traced = true))).get)
    }

    /** Runs one traced step, counting a throw or a reported problem as failed. */
    private def attempt(what: String)(body: => Seq[String]): Unit = {
      tracedOps += 1
      val p = Try(body).fold(e => Seq(s"$what threw $e"), identity)
      if (p.nonEmpty) { tracedFailed += 1; tracedProblems ++= p }
    }

    /** Runs, once, each layer group the traced pass did not reach, so that
      * every workload reports every per-layer metric; then the walker rates.
      */
    final def sweep(tr: Tracer): Unit = {
      val b = sweepData
      val p = b.pairs.head
      if (!tr.has("Datasets.build"))
        attempt("sweep build") { Layers.tracedBuild(ctx, ctx.spec(Datasets.pokec, "sweep"), tr); Nil }
      if (!tr.has("Nrmse.run")) attempt("sweep grid") {
        val cps = Nrmse.paperCheckpoints(b.nV)
        Layers.tracedGrid(ctx, b, p, cps, tr)
        Layers.singleThreadBaseline(ctx, b, p, cps, tr); Nil
      }
      if (!tr.has("Tables.boundsRow")) attempt("sweep bounds") {
        val ref = Tables.boundsRow(ctx.spark, b, p)
        val r = Layers.tracedBounds(ctx, b, p, tr)
        val same = r.productIterator.zip(ref.productIterator).forall { case (x: Double, y: Double) =>
          math.abs(x - y) <= 1e-9 * math.max(1.0, math.abs(x)) }
        Layers.checkBounds(b, p, r) ++ (if (same) Nil else Seq(s"traced bounds $r differ from Tables.boundsRow $ref"))
      }
      attempt("walker rates") { Layers.walkerRates(ctx, b, p); Nil }
    }

    /** The dataset the sweep runs on (a bench-scale pokec). */
    def sweepData: Built
  }

  /** `build`: fresh builds of the three label schemes, round after round. */
  final class BuildWorkload(ctx: Ctx) extends Workload[Built](ctx) {
    private val bases = Seq(Datasets.facebook, Datasets.pokec, Datasets.orkut)
    private val outputs = mutable.ArrayBuffer.empty[Built]
    private def specAt(i: Int) = ctx.spec(bases(i % bases.length), s"r${i / bases.length}")
    val cells: Int = bases.length
    val opSpan = "Datasets.build"

    def setup(): Unit = release(ctx.build(ctx.spec(Datasets.facebook, "warmup")))
    def op(i: Int): Built = { val b = ctx.build(specAt(i)); outputs += b; b }
    def tracedOp(i: Int, tr: Tracer): Built = {
      val b = Layers.tracedBuild(ctx, specAt(i).copy(name = specAt(i).name + "/traced"), tr)
      outputs += b; b
    }

    def check(i: Int, b: Built, traced: Boolean): Seq[String] = {
      val bad = mutable.ArrayBuffer.empty[String]
      b.pairs.foreach { p =>
        val local = GroundTruth.targetEdgeCountLocal(b.g, p.t1, p.t2)
        if (local != p.f) bad += s"${b.name} pair (${p.t1},${p.t2}): F=${p.f} but CSR count $local"
      }
      val dfEdges = b.edges.count()
      if (dfEdges != b.nE) bad += s"${b.name}: CSR |E|=${b.nE} but edge DataFrame has $dfEdges"
      if (b.burnIn < 1) bad += s"${b.name}: burn-in ${b.burnIn} < 1"
      // a traced build must reproduce the untraced build of the same spec
      if (traced) outputs.find(_.name + "/traced" == b.name) match {
        case Some(o) => if (o.pairs != b.pairs || o.nE != b.nE) bad += s"${b.name}: traced build differs from untraced"
        case None => bad += s"${b.name}: no untraced build to compare with"
      }
      bad.toSeq
    }

    /** Keeps only the last round cached, so retained heap does not grow with
      * the number of rounds.
      */
    override def afterChecks(): Unit = outputs.dropRight(bases.length).foreach(release)

    private def release(b: Built): Unit = Seq(b.edges, b.labels, b.degrees).foreach(_.unpersist())

    def sweepData: Built = outputs.filter(_.name.startsWith(Datasets.pokec.name)).last
  }

  /** `grid` (lite budgets, as Tables 4–17 run) and `walk` (the paper's
    * absolute Pokec budgets): 200-simulation NRMSE grids over the prebuilt
    * dataset's label pairs.
    */
  final class GridWorkload(ctx: Ctx, paperBudgets: Boolean)
      extends Workload[Map[String, Map[Int, Double]]](ctx) {
    private var data: Built = _
    private def pair(i: Int) = data.pairs(i % data.pairs.length)
    private def checkpoints = Nrmse.paperCheckpoints(if (paperBudgets) PaperPokecNodes else data.nV)
    def cells: Int = data.pairs.length
    val opSpan = "Nrmse.run"

    def setup(): Unit = {
      data = ctx.build(ctx.spec(Datasets.pokec, "data"))
      // warm the walker and fan-out code paths on every cell: a cell's first
      // grid is slower than its repeats
      (0 until cells).foreach(op)
    }

    def op(i: Int): Map[String, Map[Int, Double]] = {
      val p = pair(i)
      if (paperBudgets)
        Nrmse.run(ctx.spark, data.g, p.t1, p.t2, checkpoints, data.burnIn, Sims, p.f, ctx.seedBase)
      else Tables.nrmseTable(ctx.spark, data, p, Sims, ctx.seedBase).results
    }

    def tracedOp(i: Int, tr: Tracer): Map[String, Map[Int, Double]] = {
      val r = Layers.tracedGrid(ctx, data, pair(i), checkpoints, tr)
      Layers.singleThreadBaseline(ctx, data, pair(i), checkpoints, tr)
      r
    }

    /** Every algorithm × budget present and finite; a repeated grid of a
      * cell bit-identical to its first (op 0 is re-run to ensure a repeat);
      * a traced grid equal to the untraced one up to summation order.
      */
    def check(i: Int, r: Map[String, Map[Int, Double]], traced: Boolean): Seq[String] = {
      val p = pair(i)
      val cell = s"(${p.t1},${p.t2})"
      val missing = for {
        a <- Nrmse.AllAlgorithms; k <- checkpoints
        if !r.get(a).flatMap(_.get(k)).exists(v => !v.isNaN && !v.isInfinite)
      } yield s"$cell $a@$k missing or not finite"
      val d = Stats.digest(r)
      val first = digests.getOrElseUpdate(cell, { references(cell) = r; d })
      val repeat = if (i == 0 && !traced) Stats.digest(op(0)) else first
      val mismatch =
        if (traced) {
          val ref = references(cell)
          val same = r.keySet == ref.keySet && r.forall { case (a, m) => m.forall { case (k, v) =>
            ref(a).get(k).exists(u => math.abs(v - u) <= 1e-9 * math.max(1.0, math.abs(v))) } }
          if (same) Nil else Seq(s"$cell traced grid differs from untraced")
        } else Seq(d, repeat).filter(_ != first).map(x => s"$cell grid not bit-identical on repeat ($first vs $x)")
      missing ++ mismatch
    }
    private val references = mutable.Map.empty[String, Map[String, Map[Int, Double]]]

    def sweepData: Built = data
  }

  /** Traced re-compositions of the program's operations, and the per-layer
    * metric table.
    */
  object Layers {

    private def force(df: DataFrame): DataFrame = { val p = df.persist(); p.count(); p }

    /** [[Datasets.build]]'s pipeline, one span per stage; each lazy stage is
      * persisted and counted at its span boundary so its time lands there.
      */
    def tracedBuild(ctx: Ctx, spec: Spec, tr: Tracer): Built = {
      val spark = ctx.spark
      val temp = mutable.ArrayBuffer.empty[DataFrame] // forced stages Datasets.build does not cache
      val b = tr.span("Datasets.build") {
        // alpha and i0 are SocialGraphGen.edges' defaults, which Datasets uses
        val cand = tr.span("SocialGraphGen.candidateEdges")(
          force(SocialGraphGen.candidateEdges(spark, spec.n, spec.candidateEdges, 0.67, 10.0, spec.seed)))
        val raw = tr.span("GraphOps.canonicalize")(force(GraphOps.canonicalize(cand)))
        val (edges, nodeMap) = tr.span("GraphOps.largestComponent") {
          val (e, m) = GraphOps.largestComponent(spark, raw)
          (force(e), force(m))
        }
        temp ++= Seq(cand, raw, nodeMap)
        val degrees = tr.span("GraphOps.degrees")(force(GraphOps.degrees(edges)))
        val labels = tr.span("SocialGraphGen.labels")(force(spec.scheme match {
          case Datasets.Gender(frac1) =>
            GraphOps.remapLabels(SocialGraphGen.genderLabels(spark, spec.n, frac1, spec.seed + 1), nodeMap)
          case Datasets.ZipfLocations(nLabels, s) =>
            GraphOps.remapLabels(SocialGraphGen.zipfLabels(spark, spec.n, nLabels, s, spec.seed + 1), nodeMap)
          case Datasets.DegreeBuckets => SocialGraphGen.degreeLabels(degrees)
        }))
        val g = tr.spanWith("CsrGraph.fromDataFrames") { (r: (CsrGraph, Double), s: Tracer#Span) =>
          val (g, peak) = r
          s.extra("bytes") = 4.0 * (g.offsets.length + g.neighbors.length + g.labels.length)
          s.extra("heap_peak_mb") = peak
        }(Tracer.heapPeakMb(CsrGraph.fromDataFrames(edges, labels)))._1
        val burnIn = tr.span("MixingTime.estimate")(
          MixingTime.estimate(g, eps = 1e-3, extraStarts = 2, maxSteps = 1000))
        val pairs = tr.span("GroundTruth.pairs")(spec.scheme match {
          case Datasets.Gender(_) => Seq(LabelPair(1, 2, GroundTruth.targetEdgeCount(edges, labels, 1, 2)))
          case _ => Datasets.quartilePairs(GroundTruth.labelPairCounts(edges, labels), spec.nPairs,
                                           spec.minPairCount)
        })
        Built(spec.name, g, edges, labels, degrees, burnIn, pairs)
      }
      temp.foreach(_.unpersist())
      ctx.noteBuilt(b)
      b
    }

    /** [[Nrmse.run]] split into its fan-out (`estimates`, forced) and its
      * aggregation (`nrmse`).
      */
    def tracedGrid(ctx: Ctx, b: Built, p: LabelPair, cps: Seq[Int], tr: Tracer): Map[String, Map[Int, Double]] =
      tr.span("Nrmse.run") {
        val est = tr.spanWith("Nrmse.estimates") { (_: DataFrame, s: Tracer#Span) =>
          s.extra("task_skew") = Stats.skew(s.taskMs)
        } {
          val d = Nrmse.estimates(ctx.spark, b.g, p.t1, p.t2, cps, b.burnIn, Sims, ctx.seedBase).persist()
          d.count(); d
        }
        val rows = tr.span("Nrmse.nrmse")(Nrmse.nrmse(est, p.f).collect())
        est.unpersist()
        rows.groupBy(_.getString(0)).map { case (alg, rs) => alg -> rs.map(r => r.getInt(1) -> r.getDouble(2)).toMap }
      }

    /** `Nrmse.simulate` for `BaselineSims` sims of the cell on this thread;
      * with the cell's traced `Nrmse.estimates` it gives the fan-out
      * efficiency.
      */
    def singleThreadBaseline(ctx: Ctx, b: Built, p: LabelPair, cps: Seq[Int], tr: Tracer): Unit = {
      val t0 = System.nanoTime()
      (0 until BaselineSims).foreach(s => Nrmse.simulate(b.g, p.t1, p.t2, cps, b.burnIn, ctx.seedBase + s))
      val perSim = (System.nanoTime() - t0) / 1e9 / BaselineSims
      val est = tr.spans("Nrmse.estimates").last
      fanout += ((perSim, perSim * Sims / (est.seconds * ctx.cores)))
    }
    private val fanout = mutable.ArrayBuffer.empty[(Double, Double)]

    /** `Tables.boundsRow` split into the T(u) input and the bound aggregations. */
    def tracedBounds(ctx: Ctx, b: Built, p: LabelPair, tr: Tracer): Bounds.SampleBounds =
      tr.span("Tables.boundsRow") {
        val incident = tr.span("GroundTruth.incidentTargetCounts") {
          val d = GroundTruth.incidentTargetCounts(b.edges, b.labels, p.t1, p.t2)
            .join(b.degrees, Seq("node")).select(col("node"), col("degree"), col("t")).persist()
          d.count(); d
        }
        val r = tr.span("Bounds.all")(Bounds.all(incident, b.nV, b.nE, p.f))
        incident.unpersist()
        r
      }

    /** All five bounds finite and > 0, and Σ_u T(u) = 2F. */
    def checkBounds(b: Built, p: LabelPair, r: Bounds.SampleBounds): Seq[String] = {
      val all = Seq("NS-HH" -> r.nsHH, "NS-HT" -> r.nsHT, "NE-HH" -> r.neHH, "NE-HT" -> r.neHT, "NE-RW" -> r.neRW)
      val bad = all.collect { case (n, v) if v.isNaN || v.isInfinite || v <= 0 => s"(${p.t1},${p.t2}) $n=$v" }
      val sumT = GroundTruth.incidentTargetCounts(b.edges, b.labels, p.t1, p.t2).agg(sum("t")).head.getLong(0)
      bad ++ (if (sumT != 2 * p.f) Seq(s"(${p.t1},${p.t2}) sum T(u)=$sumT != 2F=${2 * p.f}") else Nil)
    }

    /** Single-threaded units (walk steps or API calls of the budget) per
      * second for each walker, at the paper's Pokec budget grid.
      */
    def walkerRates(ctx: Ctx, b: Built, p: LabelPair): Unit = {
      val cps = Nrmse.paperCheckpoints(PaperPokecNodes)
      def rate(run: SplittableRandom => Any): Double = {
        run(new SplittableRandom(ctx.seedBase)) // warm
        val t0 = System.nanoTime()
        (0 until WalkerSims).foreach(s => run(new SplittableRandom(ctx.seedBase + s)))
        WalkerSims.toDouble * cps.last / ((System.nanoTime() - t0) / 1e9)
      }
      walkers.clear()
      walkers += "NeighborSample.run" -> rate(NeighborSample.run(b.g, p.t1, p.t2, cps, b.burnIn, _))
      walkers += "NeighborExploration.run" -> rate(NeighborExploration.run(b.g, p.t1, p.t2, cps, b.burnIn, _))
      LineGraphWalks.defaultVariants.foreach { v =>
        walkers += s"LineGraphWalks.run.${v.name}" -> rate(LineGraphWalks.run(b.g, v, p.t1, p.t2, cps, b.burnIn, _))
      }
    }
    private val walkers = mutable.LinkedHashMap.empty[String, Double]

    val SparkSpans: Seq[String] = Seq(
      "SocialGraphGen.candidateEdges", "GraphOps.canonicalize", "GraphOps.largestComponent",
      "GraphOps.degrees", "SocialGraphGen.labels", "CsrGraph.fromDataFrames", "GroundTruth.pairs",
      "GroundTruth.incidentTargetCounts", "Bounds.all", "Nrmse.estimates", "Nrmse.nrmse")
    val ParentSpans: Seq[String] = Seq("Datasets.build", "Tables.boundsRow", "Nrmse.run")

    /** Every per-layer metric: medians over the spans of each name. */
    def metrics(tr: Tracer, w: Workload[_], untracedP50: Double): Seq[(String, Double, String)] = {
      def med(name: String)(f: Tracer#Span => Double): Double = {
        val ss = tr.spans(name)
        require(ss.nonEmpty, s"no '$name' span recorded")
        Stats.median(ss.map(f))
      }
      val spark = SparkSpans.flatMap { n =>
        Seq(
          (s"$n.s", med(n)(_.seconds), "s"),
          (s"$n.self_s", med(n)(_.selfSeconds), "s"),
          (s"$n.jobs", med(n)(_.jobs.toDouble), "count"),
          (s"$n.tasks", med(n)(_.tasks.toDouble), "count"),
          (s"$n.task_s", med(n)(_.taskSeconds), "s"),
          (s"$n.shuffle_mb", med(n)(_.shuffleBytes / 1048576.0), "MB"),
          (s"$n.busy_frac", med(n)(_.busyFrac), "frac"),
        ) ++ (n match {
          case "CsrGraph.fromDataFrames" =>
            Seq((s"$n.bytes", med(n)(_.extra("bytes")), "B"), (s"$n.heap_peak_mb", med(n)(_.extra("heap_peak_mb")), "MB"))
          case "Nrmse.estimates" => Seq((s"$n.task_skew", med(n)(_.extra("task_skew")), "ratio"))
          case _ => Nil
        })
      }
      val parents = ParentSpans.flatMap(n => Seq((s"$n.s", med(n)(_.seconds), "s"), (s"$n.self_s", med(n)(_.selfSeconds), "s")))
      require(fanout.nonEmpty, "no single-threaded baseline recorded")
      spark ++ parents ++ Seq(
        ("MixingTime.estimate.s", med("MixingTime.estimate")(_.seconds), "s"),
        ("Nrmse.simulate.s_per_sim", Stats.median(fanout.map(_._1).toSeq), "s"),
        ("Nrmse.fanout_eff", Stats.median(fanout.map(_._2).toSeq), "frac"),
      ) ++ walkers.map { case (n, v) => (s"$n.units_per_s", v, "1/s") } ++ Seq(
        ("trace_overhead_frac", med(w.opSpan)(_.seconds) / untracedP50 - 1.0, "frac"),
      )
    }
  }

  object Stats {
    def median(xs: Seq[Double]): Double = {
      require(xs.nonEmpty, "median of nothing")
      val s = xs.sorted; val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

    /** The highest percentile with at least 10 ops beyond it, if any. */
    def tail(xs: Seq[Double]): Option[(Double, Double)] =
      Seq(99.0, 95.0, 90.0, 75.0, 50.0).find(p => xs.length * (100 - p) / 100 >= 10).map { p =>
        val s = xs.sorted
        (p, s(math.min(s.length - 1, math.ceil(p / 100 * s.length).toInt - 1)))
      }

    /** Max over median task duration in the stage that ran longest. */
    def skew(taskMs: Seq[(Int, Long)]): Double =
      if (taskMs.isEmpty) 0.0
      else {
        val stage = taskMs.groupBy(_._1).values.maxBy(_.map(_._2).sum).map(_._2)
        stage.max / math.max(1.0, median(stage.map(_.toDouble)))
      }

    /** Heap in use after a GC. Spark's ContextCleaner frees unreferenced
      * broadcasts asynchronously once a GC has found them, so a second GC
      * follows a short pause.
      */
    def heapAfterGcMb(): Double = {
      System.gc(); Thread.sleep(300); System.gc()
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    }

    /** SHA-256 (first 16 hex digits) over a grid's exact double bits. */
    def digest(r: Map[String, Map[Int, Double]]): String = {
      val md = MessageDigest.getInstance("SHA-256")
      for ((a, m) <- r.toSeq.sortBy(_._1); (k, v) <- m.toSeq.sortBy(_._1))
        md.update(s"$a|$k|${java.lang.Double.doubleToRawLongBits(v)};".getBytes(StandardCharsets.UTF_8))
      md.digest().take(8).map(b => f"$b%02x").mkString
    }
  }

  /** Just enough JSON writing for the result line and the run record. */
  object Json {
    def str(s: String): String =
      "\"" + s.flatMap {
        case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
        case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
      } + "\""
    def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else d.toString
    def num(i: Int): String = i.toString
    def bool(b: Boolean): String = b.toString
    def arr(xs: Seq[String]): String = xs.mkString("[", ",", "]")
    def obj(kv: (String, String)*): String = kv.map { case (k, v) => s"${str(k)}:$v" }.mkString("{", ",", "}")
  }
}
