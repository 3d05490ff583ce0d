package perfbench

import java.util.Properties

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One timed interval. `parent` is the id of the enclosing span, -1 for a
  * root. Times are `System.nanoTime` values.
  */
final case class Span(id: Int, parent: Int, name: String, layer: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder for the traced run; spans are written out only
  * when the run ends.
  */
final class Tracer {
  private val buf = mutable.ArrayBuffer[Span]()
  private var open: List[Span] = Nil // innermost first, not yet ended
  private var nextId = 0
  // Spark listener events carry epoch milliseconds; map them onto nanoTime.
  private val epochToNanoOffset = System.nanoTime() - System.currentTimeMillis() * 1000000L

  def fromEpochMs(ms: Long): Long = ms * 1000000L + epochToNanoOffset

  def current: Int = open.headOption.map(_.id).getOrElse(-1)

  /** Opens a span below the current one; close it with [[end]]. */
  def begin(name: String, layer: String): Int = {
    val s = Span(nextId, current, name, layer, System.nanoTime(), -1L)
    nextId += 1
    open = s :: open
    s.id
  }

  def end(id: Int): Unit = {
    require(open.headOption.exists(_.id == id), s"span $id is not the innermost open span")
    buf += open.head.copy(endNs = System.nanoTime())
    open = open.tail
  }

  def span[T](name: String, layer: String)(body: => T): T = {
    val id = begin(name, layer)
    try body finally end(id)
  }

  /** Record an already-finished interval; returns its id. */
  def record(name: String, layer: String, startNs: Long, endNs: Long, parent: Int): Int = {
    val id = nextId; nextId += 1
    buf += Span(id, parent, name, layer, startNs, endNs)
    id
  }

  def spans: Seq[Span] = buf.toSeq
}

object SelfTime {

  /** Length of the union of intervals, clipped to [lo, hi). */
  def unionNs(intervals: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    val clipped = intervals.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0L; var curA = Long.MinValue; var curB = Long.MinValue
    clipped.foreach { case (a, b) =>
      if (a > curB) { if (curB > curA) total += curB - curA; curA = a; curB = b }
      else if (b > curB) curB = b
    }
    if (curB > curA) total += curB - curA
    total
  }

  /** Self time of every span: its duration minus the part of its interval
    * that its children cover.
    */
  def perSpan(spans: Seq[Span]): Map[Int, Long] = {
    val kids = spans.groupBy(_.parent)
    spans.map { s =>
      val c = kids.getOrElse(s.id, Nil).map(k => (k.startNs, k.endNs))
      s.id -> (s.durNs - unionNs(c, s.startNs, s.endNs))
    }.toMap
  }

  /** Summed self time per layer, in seconds. Children that run in parallel
    * (tasks) each count in full, so a layer's self time is busy time.
    */
  def byLayer(spans: Seq[Span]): Map[String, Double] = {
    val self = perSpan(spans)
    spans.groupBy(_.layer).map { case (l, ss) => l -> ss.map(s => self(s.id)).sum / 1e9 }
  }
}

/** Maps a Spark job to the program layer that submitted it, from the job's
  * short call site ("count at Pipeline.scala:73").
  */
object Layers {
  val All: Seq[String] = Seq("graph", "sampler", "walk", "pipeline", "learn")

  def ofCallSite(callSite: String): String = {
    val cs = Option(callSite).getOrElse("")
    if (cs.contains("Word2Vec")) "learn"
    else if (cs.startsWith("count at Pipeline.scala")) "walk"
    else if (cs.contains("Pipeline.scala")) "pipeline"
    else if (cs.contains("GraphGen.scala")) "graph"
    else "other"
  }
}

final case class JobRec(id: Int, callSite: String, description: String, startMs: Long,
                        endMs: Long, stageIds: Seq[Int], layer: String) {
  def seconds: Double = (endMs - startMs) / 1e3
}

final case class StageRec(id: Int, attempt: Int, name: String, numTasks: Int,
                          submitMs: Long, completeMs: Long)

final case class TaskRec(stageId: Int, stageAttempt: Int, launchMs: Long, finishMs: Long,
                         runMs: Long, deserMs: Long, gcMs: Long, resultSerMs: Long,
                         gettingResultMs: Long, shuffleWriteBytes: Long,
                         accums: Map[String, Long])

/** Records job, stage and task events while attached. Callbacks arrive on
  * Spark's listener thread; read the records only after [[sync]].
  */
final class JobListener extends SparkListener {
  private val jobStarts = mutable.Map[Int, (String, String, Long, Seq[Int])]()
  private val jobEnds = mutable.Map[Int, Long]()
  private val stageBuf = mutable.ArrayBuffer[StageRec]()
  private val taskBuf = mutable.ArrayBuffer[TaskRec]()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val p = Option(e.properties).getOrElse(new Properties)
    // A job's short call site is the name of its result (last) stage.
    val callSite = e.stageInfos.maxByOption(_.stageId).map(_.name).orNull
    jobStarts(e.jobId) = (callSite, p.getProperty("spark.job.description"), e.time, e.stageIds)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobEnds(e.jobId) = e.time }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    stageBuf += StageRec(i.stageId, i.attemptNumber(), i.name, i.numTasks,
                         i.submissionTime.getOrElse(0L), i.completionTime.getOrElse(0L))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    val ti = e.taskInfo
    val accums = ti.accumulables.flatMap { a =>
      (a.name, a.update) match {
        case (Some(n), Some(v: Long))              => Some(n -> v)
        case (Some(n), Some(v: java.lang.Long))    => Some(n -> v.longValue)
        case _                                     => None
      }
    }.toMap
    if (m != null)
      taskBuf += TaskRec(e.stageId, e.stageAttemptId, ti.launchTime, ti.finishTime,
                         m.executorRunTime, m.executorDeserializeTime, m.jvmGCTime,
                         m.resultSerializationTime, ti.gettingResultTime,
                         m.shuffleWriteMetrics.bytesWritten, accums)
  }

  def jobs: Seq[JobRec] = synchronized {
    jobStarts.toSeq.collect { case (id, (cs, desc, t0, st)) if jobEnds.contains(id) && desc != JobListener.Marker =>
      JobRec(id, cs, desc, t0, jobEnds(id), st, Layers.ofCallSite(cs))
    }.sortBy(_.id)
  }
  def stages: Seq[StageRec] = synchronized(stageBuf.toSeq)
  def tasks: Seq[TaskRec] = synchronized(taskBuf.toSeq)

  private def markerEnded: Boolean = synchronized {
    jobStarts.exists { case (id, (_, d, _, _)) => d == JobListener.Marker && jobEnds.contains(id) }
  }

  /** Waits until every event posted before this call has been delivered:
    * runs a marker job and waits for its end event, which the listener bus
    * delivers after all earlier events.
    */
  def sync(sc: SparkContext): Unit = {
    sc.setJobDescription(JobListener.Marker)
    try sc.parallelize(Seq(0), 1).count() finally sc.setJobDescription(null)
    val deadline = System.nanoTime() + 60L * 1000000000L
    while (!markerEnded) {
      if (System.nanoTime() > deadline) throw new IllegalStateException("listener events did not arrive")
      Thread.sleep(5)
    }
    synchronized {
      val ids = jobStarts.collect { case (id, (_, d, _, _)) if d == JobListener.Marker => id }
      ids.foreach { id => jobStarts.remove(id); jobEnds.remove(id) }
    }
  }
}

object JobListener {
  val Marker = "perfbench-listener-sync"
}
