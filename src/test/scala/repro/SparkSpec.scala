package repro

import org.apache.spark.SparkEnv
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.BroadcastBlockId
import org.scalatest.funsuite.AnyFunSuite

import repro.jobs.RunTables

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM. The session is built by `RunTables`, so the plans and
  * the partitioning tests run are those the tables run.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Broadcast value blocks in this JVM's block manager that hold `value`
    * (Spark's own task-binary broadcasts stay until its ContextCleaner
    * removes them).
    */
  def blocksHolding(value: AnyRef): Int = {
    val blockManager = SparkEnv.get.blockManager
    blockManager.getMatchingBlockIds(_.isBroadcast).count {
      case id @ BroadcastBlockId(_, "") =>
        blockManager.getLocalValues(id).exists(_.data.toList.exists(_.asInstanceOf[AnyRef] eq value))
      case _ => false
    }
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = RunTables.session()
    // One line in test output that tells whether the cgroup derivation saw
    // the real memory limit.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
