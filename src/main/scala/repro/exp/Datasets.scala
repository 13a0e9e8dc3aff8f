package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{GroundTruth, MixingTime}
import repro.graph.{CsrGraph, GraphOps, SocialGraphGen}

/** The five experiment datasets: synthetic stand-ins for the paper's
  * SNAP/KONECT networks (substitution table in DESIGN.md §3).
  *
  * Each build follows the paper's §5.1 pipeline exactly: generate, drop
  * directions/self-loops/multi-edges, take the largest connected component,
  * assign labels, measure the mixing time T(1e-3) to be used as walk
  * burn-in, and select target label pairs by the quartile procedure of
  * §5.2, which on a gender graph picks (1,2), its one pair of distinct labels.
  */
object Datasets {

  /** A target label pair with its exact count F (a table's caption line). */
  final case class LabelPair(t1: Int, t2: Int, f: Long) {
    def pct(nE: Long): Double = 100.0 * f / nE
  }

  /** A fully prepared dataset: CSR graph + metadata, with the lazy
    * DataFrame plans it was built from (recomputed if read).
    */
  final case class Built(
      name: String,
      g: CsrGraph,
      edges: DataFrame,   // canonical remapped edge list
      labels: DataFrame,  // (node, label)
      degrees: DataFrame, // (node, degree)
      burnIn: Int,        // measured mixing time T(1e-3)
      pairs: Seq[LabelPair],
  ) {
    def nV: Long = g.numNodes
    def nE: Long = g.numEdges
  }

  /** How a dataset's node labels are produced. */
  sealed trait LabelScheme
  final case class Gender(frac1: Double) extends LabelScheme {
    require(frac1 > 0.0 && frac1 < 1.0, s"Gender needs 0 < frac1 < 1, got $frac1")
  }
  final case class ZipfLocations(nLabels: Int, s: Double) extends LabelScheme {
    require(nLabels >= 2 && java.lang.Double.isFinite(s) && s != 1.0,
      s"ZipfLocations needs nLabels >= 2 and a finite s != 1, got $nLabels and $s")
  }
  case object DegreeBuckets extends LabelScheme

  /** Generation recipe for one dataset.
    *
    * `minPairCount` floors the quartile label-pair selection: our API budget
    * tops out at 5%·|V| ≈ 2–2.5K calls (the paper's graphs are 30–60×
    * larger, so its 5%|V| is 0.2–1.5M calls), and below ~100 target edges
    * every algorithm degenerates to NRMSE ≈ 1 at that budget. The floor
    * keeps the rarest quartile in the regime the paper's rare labels occupy
    * relative to *its* budget (see DESIGN.md §3).
    */
  final case class Spec(name: String, n: Long, candidateEdges: Long,
                        scheme: LabelScheme, seed: Long, nPairs: Int,
                        minPairCount: Long = 100) {
    require(n >= 2 && candidateEdges >= 1 && nPairs >= 1,
      s"$name needs n >= 2, candidateEdges >= 1 and nPairs >= 1, got $n, $candidateEdges and $nPairs")
  }

  /** The five stand-ins. Gender splits are tuned so the (1,2) target-edge
    * share lands near the paper's (Facebook 42.4%, Google+ 26.9%).
    */
  val facebook: Spec    = Spec("facebook-lite",    4000L,  110000L, Gender(0.70),            seed = 101, nPairs = 1)
  val gplus: Spec       = Spec("gplus-lite",       20000L, 600000L, Gender(0.85),            seed = 202, nPairs = 1)
  // pokec locations: many values with mild skew (real location labels are
  // fine-grained — even the largest city is a few percent of users). A
  // steeper zipf would make single labels cover >10% of the graph, which
  // both misrepresents Pokec and turns NeighborExploration's per-neighbor
  // exploration charge into the dominant cost. The floor is higher than the
  // degree-label datasets' because explorations still fire more often under
  // location labels, so the rarest quartile needs more target edges to stay
  // informative at a 2K-call budget.
  val pokec: Spec       = Spec("pokec-lite",       40000L, 450000L, ZipfLocations(300, 0.8), seed = 303,
                               nPairs = 4, minPairCount = 300)
  val orkut: Spec       = Spec("orkut-lite",       50000L, 1100000L, DegreeBuckets,          seed = 404, nPairs = 4)
  val livejournal: Spec = Spec("livejournal-lite", 50000L, 550000L, DegreeBuckets,           seed = 505, nPairs = 4)

  val all: Seq[Spec] = Seq(facebook, gplus, pokec, orkut, livejournal)

  /** §5.2 quartile selection: among pairs with distinct labels and count ≥
    * `minCount`, order ascending by count, ties ascending by (l1, l2), split
    * into `nPairs` equal parts, take each part's median pair. Deterministic
    * (median, not random draw) and independent of the order of `pairCounts`,
    * the (l1, l2, cnt) rows of [[GroundTruth.labelPairCounts]].
    */
  def quartilePairs(pairCounts: Seq[(Int, Int, Long)], nPairs: Int, minCount: Long): Seq[LabelPair] = {
    require(nPairs >= 1, s"nPairs must be at least 1, got $nPairs")
    val sorted = pairCounts
      .collect { case (l1, l2, cnt) if l1 != l2 && cnt >= minCount => LabelPair(l1, l2, cnt) }
      .sortBy(p => (p.f, p.t1, p.t2)).toIndexedSeq
    require(sorted.length >= nPairs, s"only ${sorted.length} eligible label pairs")
    val per = sorted.length / nPairs
    (0 until nPairs).map { q =>
      val lo = q * per
      val hi = if (q == nPairs - 1) sorted.length else (q + 1) * per
      sorted(lo + (hi - lo) / 2)
    }
  }

  /** Build the dataset for `spec`. A function of `spec` only for a fixed
    * partitioning of `spark.range` (the generator's draws follow it, so the
    * graph changes with the core count; ROADMAP item 1). Nothing stays
    * cached once the CSR graph is collected, even if a later step fails, so
    * callers hold the `Built`s they reuse.
    */
  def build(spark: SparkSession, spec: Spec): Built = {
    val raw = SocialGraphGen.edges(spark, spec.n, spec.candidateEdges, spec.seed)
    val (edges0, nodeMap) = GraphOps.largestComponent(spark, raw)
    val edges = edges0.cache()
    val degrees = GraphOps.degrees(edges)
    val labels = (spec.scheme match {
      case Gender(frac1) =>
        GraphOps.remapLabels(
          SocialGraphGen.genderLabels(spark, spec.n, frac1, spec.seed + 1), nodeMap)
      case ZipfLocations(nLabels, s) =>
        GraphOps.remapLabels(
          SocialGraphGen.zipfLabels(spark, spec.n, nLabels, s, spec.seed + 1), nodeMap)
      case DegreeBuckets =>
        SocialGraphGen.degreeLabels(degrees) // degrees are already post-remap
    }).cache()

    val g = try CsrGraph.fromDataFrames(edges, labels)
            finally { edges.unpersist(); labels.unpersist() }
    val burnIn = MixingTime.estimate(g, eps = 1e-3, extraStarts = 2, maxSteps = 1000)
    val pairs = quartilePairs(GroundTruth.labelPairCounts(g), spec.nPairs, spec.minPairCount)
    Built(spec.name, g, edges, labels, degrees, burnIn, pairs)
  }
}
