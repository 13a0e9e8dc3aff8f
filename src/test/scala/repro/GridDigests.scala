package repro

import java.io.{BufferedOutputStream, DataOutputStream, OutputStream}
import java.security.{DigestOutputStream, MessageDigest}

import repro.core.{GroundTruth, Nrmse}
import repro.exp.{Datasets, Tables, TinySpecs}
import repro.jobs.RunTables

/** Fingerprints of the built datasets and their NRMSE grids, for checking
  * that a refactor leaves every number bit-identical: run it on both
  * checkouts and compare the output.
  *
  *     sbt "Test/runMain repro.GridDigests 200"
  *
  * Builds the `TinySpecs` datasets and pokec-lite with the `RunTables`
  * session, then prints two SHA-256s per dataset and one per grid. The
  * `dataset` line covers the CSR offsets, neighbors and labels, the burn-in
  * and the label pairs with F. The `pairs` line covers the full label-pair
  * table, its (l1, l2, cnt) rows in ascending order, so that a counting
  * change that keeps the same picks still shows. The `grid` line covers the
  * raw bits of every cell of `Tables.nrmseTable` at seedBase 42, in
  * `Nrmse.AllAlgorithms` × checkpoint order. It also prints each pair's
  * `Tables.boundsRow` as five `%.17g` values, so that a change to the bounds
  * can be diffed too. The argument is the simulation count (default 200).
  */
object GridDigests {

  def main(args: Array[String]): Unit = {
    val sims = args.headOption.map(_.toInt).getOrElse(200)
    val spark = RunTables.session()
    try {
      for (spec <- Seq(TinySpecs.gender, TinySpecs.zipf, TinySpecs.deg, Datasets.pokec)) {
        val built = Datasets.build(spark, spec)
        val g = built.g
        println(s"dataset ${spec.name} sha256=" + sha256 { out =>
          Seq(g.offsets, g.neighbors, g.labels).foreach { a => out.writeInt(a.length); a.foreach(out.writeInt) }
          out.writeInt(built.burnIn)
          built.pairs.foreach { p => out.writeInt(p.t1); out.writeInt(p.t2); out.writeLong(p.f) }
        })
        println(s"pairs ${spec.name} sha256=" + sha256 { out =>
          GroundTruth.labelPairCounts(g).sorted.foreach { case (l1, l2, cnt) =>
            out.writeInt(l1); out.writeInt(l2); out.writeLong(cnt)
          }
        })
        for (pair <- built.pairs) {
          val table = Tables.nrmseTable(spark, built, pair, sims, seedBase = 42L)
          println(s"grid ${spec.name} (${pair.t1},${pair.t2}) sims=$sims sha256=" + sha256 { out =>
            for (alg <- Nrmse.AllAlgorithms; k <- table.checkpoints)
              out.writeLong(java.lang.Double.doubleToRawLongBits(table.results(alg)(k)))
          })
          val b = Tables.boundsRow(spark, built, pair)
          println(s"bounds ${spec.name} (${pair.t1},${pair.t2}) " +
                  Seq(b.nsHH, b.nsHT, b.neHH, b.neHT, b.neRW).map("%.17g".format(_)).mkString(" "))
        }
      }
    } finally spark.stop()
  }

  private def sha256(write: DataOutputStream => Unit): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val out = new DataOutputStream(new BufferedOutputStream(
      new DigestOutputStream(OutputStream.nullOutputStream(), md)))
    write(out)
    out.flush()
    md.digest().map(b => "%02x".format(b & 0xff)).mkString
  }
}
