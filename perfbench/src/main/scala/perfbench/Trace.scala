package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Spark job, task and shuffle counters, fed by the benchmark's own
  * listener. Listener events arrive asynchronously on Spark's listener bus,
  * so [[settle]] waits until the event count stops changing before a
  * snapshot is read.
  */
final class SparkCounters extends SparkListener {
  private var events = 0L
  private var jobs = 0L
  private var taskRunMs = 0L
  private var shuffleBytes = 0L
  private val taskMs = mutable.ArrayBuffer.empty[(Int, Long)] // (stage id, duration)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    events += 1; jobs += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    events += 1
    val m = e.taskMetrics
    if (m != null) {
      taskRunMs += m.executorRunTime
      shuffleBytes += m.shuffleWriteMetrics.bytesWritten + m.shuffleReadMetrics.totalBytesRead
    }
    taskMs += ((e.stageId, e.taskInfo.duration))
  }

  /** Blocks until no listener event has arrived for `quietMs` (at most 5 s). */
  def settle(quietMs: Long = 20): Unit = {
    val giveUp = System.nanoTime() + 5_000_000_000L
    var last = synchronized(events)
    var quietSince = System.nanoTime()
    while ((System.nanoTime() - quietSince) / 1_000_000 < quietMs && System.nanoTime() < giveUp) {
      Thread.sleep(5)
      val now = synchronized(events)
      if (now != last) { last = now; quietSince = System.nanoTime() }
    }
  }

  def snapshot: SparkCounters.Snap = synchronized {
    SparkCounters.Snap(jobs, taskMs.length, taskRunMs, shuffleBytes)
  }

  /** (stage id, duration ms) of the tasks that ended between two snapshots. */
  def taskDurations(from: SparkCounters.Snap, to: SparkCounters.Snap): Seq[(Int, Long)] = synchronized {
    taskMs.slice(from.tasks, to.tasks).toSeq
  }
}

object SparkCounters {
  final case class Snap(jobs: Long, tasks: Int, taskRunMs: Long, shuffleBytes: Long)

  def register(sc: SparkContext): SparkCounters = {
    val c = new SparkCounters
    sc.addSparkListener(c)
    c
  }
}

/** In-memory span recorder for the traced run. A span wraps one call from
  * the benchmark into a module's public function; spans nest, and a span's
  * self time is its duration minus the time its direct children cover.
  * Each span also carries the Spark counters accrued while it was open.
  */
final class Tracer(counters: SparkCounters, cores: Int) {

  final class Span(val name: String, val parent: Option[Span]) {
    var seconds = 0.0
    var childSeconds = 0.0
    var jobs = 0L
    var tasks = 0L
    var taskSeconds = 0.0
    var shuffleBytes = 0L
    var taskMs: Seq[(Int, Long)] = Nil
    val extra = mutable.LinkedHashMap.empty[String, Double]

    def selfSeconds: Double = seconds - childSeconds
    def busyFrac: Double = if (seconds > 0) taskSeconds / (seconds * cores) else 0.0
  }

  private val finished = mutable.ArrayBuffer.empty[Span]
  private var open: Option[Span] = None
  /** Time spent waiting for counters to settle; excluded from span times. */
  private var settleNanos = 0L

  private def settle(): Unit = {
    val t0 = System.nanoTime()
    counters.settle()
    settleNanos += System.nanoTime() - t0
  }

  def span[A](name: String)(body: => A): A = spanWith(name)((a: A, _: Span) => ())(body)

  /** Like [[span]], with a hook that can attach extra figures to the span. */
  def spanWith[A](name: String)(annotate: (A, Span) => Unit)(body: => A): A = {
    val s = new Span(name, open)
    settle()
    val before = counters.snapshot
    open = Some(s)
    val t0 = System.nanoTime()
    val settled0 = settleNanos
    val result =
      try body
      finally {
        s.seconds = (System.nanoTime() - t0 - (settleNanos - settled0)) / 1e9
        open = s.parent
      }
    settle()
    val after = counters.snapshot
    s.jobs = after.jobs - before.jobs
    s.tasks = (after.tasks - before.tasks).toLong
    s.taskSeconds = (after.taskRunMs - before.taskRunMs) / 1e3
    s.shuffleBytes = after.shuffleBytes - before.shuffleBytes
    s.taskMs = counters.taskDurations(before, after)
    s.parent.foreach(_.childSeconds += s.seconds)
    annotate(result, s)
    finished += s
    result
  }

  def spans(name: String): Seq[Span] = finished.filter(_.name == name).toSeq
  def has(name: String): Boolean = finished.exists(_.name == name)
}

object Tracer {

  /** Peak heap use (MB) while `body` runs, from the JVM's per-pool peaks. */
  def heapPeakMb[A](body: => A): (A, Double) = {
    val pools = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP)
    pools.foreach(_.resetPeakUsage())
    val r = body
    (r, pools.map(_.getPeakUsage.getUsed).sum / 1048576.0)
  }
}
