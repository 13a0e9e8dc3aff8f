package repro.graph

import org.apache.spark.sql.functions._

import repro.SparkSpec

class SocialGraphGenSpec extends SparkSpec {

  private lazy val edges = SocialGraphGen.edges(spark, n = 2000, m = 12000, seed = 3).cache()

  test("edges are canonical: src < dst, no self-loops") {
    assert(edges.where(col("src") >= col("dst")).count() == 0)
  }

  test("edges are distinct") {
    assert(edges.count() == edges.distinct().count())
  }

  test("node ids stay in [0, n)") {
    val row = edges.agg(min("src"), max("dst")).head()
    assert(row.getLong(0) >= 0 && row.getLong(1) < 2000)
  }

  test("achieved edge count is a reasonable fraction of candidates") {
    val m = edges.count()
    assert(m > 6000 && m <= 12000, s"|E| = $m")
  }

  test("generation is deterministic in the seed") {
    val a = SocialGraphGen.edges(spark, 500, 2000, seed = 9).collect().toSet
    val b = SocialGraphGen.edges(spark, 500, 2000, seed = 9).collect().toSet
    val c = SocialGraphGen.edges(spark, 500, 2000, seed = 10).collect().toSet
    assert(a == b)
    assert(a != c)
  }

  test("degree distribution is heavy-tailed (hub >> average)") {
    val deg = GraphOps.degrees(edges)
    val row = deg.agg(max("degree"), avg("degree")).head()
    val dMax = row.getLong(0); val dAvg = row.getDouble(1)
    assert(dMax > 5 * dAvg, s"max=$dMax avg=$dAvg — expected a skewed distribution")
  }

  test("low ranks are the hubs (power-law endpoint draw)") {
    val deg = GraphOps.degrees(edges)
    val hubAvg  = deg.where(col("node") < 20).agg(avg("degree")).head().getDouble(0)
    val tailAvg = deg.where(col("node") >= 1500).agg(avg("degree")).head().getDouble(0)
    assert(hubAvg > 3 * tailAvg, s"hubAvg=$hubAvg tailAvg=$tailAvg")
  }

  test("genderLabels: every node labeled 1 or 2, fraction near frac1") {
    val l = SocialGraphGen.genderLabels(spark, 20000, frac1 = 0.7, seed = 4)
    assert(l.count() == 20000)
    assert(l.where(!col("label").isin(1, 2)).count() == 0)
    val f1 = l.where(col("label") === 1).count() / 20000.0
    assert(math.abs(f1 - 0.7) < 0.02, s"frac1 = $f1")
  }

  test("zipfLabels: labels in [1, nLabels], heavily skewed to label 1") {
    val l = SocialGraphGen.zipfLabels(spark, 20000, nLabels = 50, s = 1.5, seed = 5).cache()
    val mm = l.agg(min("label"), max("label")).head()
    assert(mm.getInt(0) >= 1 && mm.getInt(1) <= 50)
    val counts = l.groupBy("label").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    assert(counts(1) == counts.values.max, "label 1 must be the most frequent")
    assert(counts(1) > 5 * counts.getOrElse(10, 1L), "frequency must fall off quickly")
  }

  test("zipfLabels covers many distinct labels") {
    val l = SocialGraphGen.zipfLabels(spark, 20000, nLabels = 50, s = 1.5, seed = 6)
    assert(l.select("label").distinct().count() >= 20)
  }

  test("degreeLabels uses the raw degree as the label (paper's Orkut/LJ scheme)") {
    import spark.implicits._
    val deg = Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 1024L)).toDF("node", "degree")
    val out = SocialGraphGen.degreeLabels(deg).collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(out == Map(0L -> 1, 1L -> 2, 2L -> 3, 3L -> 1024))
  }

  test("candidateEdges rejects the singular exponent alpha = 1") {
    intercept[IllegalArgumentException](SocialGraphGen.candidateEdges(spark, 100, 500, 1.0, 10.0, 1))
  }

  test("zipfLabels rejects the singular exponent s = 1") {
    intercept[IllegalArgumentException](SocialGraphGen.zipfLabels(spark, 100, nLabels = 10, s = 1.0, seed = 1))
  }

  test("candidateEdges emits exactly m rows") {
    assert(SocialGraphGen.candidateEdges(spark, 100, 500, 0.67, 10.0, 1).count() == 500)
  }
}
