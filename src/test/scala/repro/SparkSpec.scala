package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
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

  /** The number of Spark jobs that start while `body` runs. Two marker jobs
    * bracket it, and the count is read once the listener has seen the
    * closing one, so no job event is still in flight.
    */
  def jobsStartedDuring(body: => Any): Int = {
    val sc = spark.sparkContext
    val marker = "repro.SparkSpec.marker"
    val started = new AtomicInteger
    val (opened, closed) = (new CountDownLatch(1), new CountDownLatch(1))
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(marker))) match {
          case Some("open") => opened.countDown()
          case Some(_) => closed.countDown()
          case None => if (opened.getCount == 0 && closed.getCount == 1) started.incrementAndGet()
        }
    }
    def markerJob(tag: String): Unit = {
      sc.setLocalProperty(marker, tag)
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(marker, null)
    }
    sc.addSparkListener(listener)
    try {
      markerJob("open")
      body
      markerJob("close")
      assert(closed.await(60, TimeUnit.SECONDS), "the closing marker job never reached the listener")
      started.get
    } finally sc.removeSparkListener(listener)
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
