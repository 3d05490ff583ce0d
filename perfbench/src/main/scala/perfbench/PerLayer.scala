package perfbench

import repro.core.RunResult
import repro.graph.CSRGraph

/** Per-layer metrics of the traced run, from the benchmark's own spans, the
  * Spark listener records and the sampler replays.
  */
object PerLayer {

  import Main.median

  /** Adds the listener's jobs, stages and tasks to the trace, below the
    * innermost benchmark span that contains each job's start. A job whose
    * call site names no program layer (SQL jobs run from a helper thread)
    * takes the layer of that span. Splits each `GraphGen.buildCSR` interval
    * into generation (up to the end of its last Spark job) and CSR build
    * (the rest). Returns per-set-up (gen, csr) seconds and the jobs with
    * their layers.
    */
  def addSparkSpans(tracer: Tracer, jobs: Seq[JobRec], stages: Seq[StageRec], tasks: Seq[TaskRec],
                    buildIntervals: Seq[(Long, Long, Int)]): (Seq[(Double, Double)], Seq[JobRec]) = {
    val splits = buildIntervals.map { case (b0, b1, parent) =>
      val ends = jobs.filter(j => inside(tracer.fromEpochMs(j.startMs), b0, b1))
        .map(j => tracer.fromEpochMs(j.endMs))
      val mid = if (ends.isEmpty) b0 else math.min(math.max(ends.max, b0), b1)
      tracer.record("graph.gen", "graph", b0, mid, parent)
      tracer.record("graph.csr", "graph", mid, b1, parent)
      ((mid - b0) / 1e9, (b1 - mid) / 1e9)
    }
    val bench = tracer.spans
    val slack = 1000000L // listener times have millisecond resolution
    val usedStages = scala.collection.mutable.Set[(Int, Int)]()
    val layered = jobs.map { j0 =>
      val js = tracer.fromEpochMs(j0.startMs)
      val parent = bench.filter(s => inside(js, s.startNs - slack, s.endNs + slack)).sortBy(_.durNs).headOption
      val j = if (j0.layer != "other") j0 else j0.copy(layer = parent.map(_.layer).getOrElse("other"))
      val jid = tracer.record(s"job ${j.id}: ${j.callSite}", j.layer, js, tracer.fromEpochMs(j.endMs),
                              parent.map(_.id).getOrElse(-1))
      stages.filter(s => j.stageIds.contains(s.id) && !usedStages((s.id, s.attempt))).foreach { s =>
        usedStages += ((s.id, s.attempt))
        val sid = tracer.record(s"stage ${s.id}: ${s.name}", j.layer, tracer.fromEpochMs(s.submitMs),
                                tracer.fromEpochMs(s.completeMs), jid)
        tasks.filter(t => t.stageId == s.id && t.stageAttempt == s.attempt).foreach { t =>
          tracer.record(s"task of stage ${s.id}", j.layer, tracer.fromEpochMs(t.launchMs),
                        tracer.fromEpochMs(t.finishMs), sid)
        }
      }
      j
    }
    (splits, layered)
  }

  private def inside(t: Long, lo: Long, hi: Long): Boolean = t >= lo && t <= hi

  private def tasksOf(j: Seq[JobRec], tasks: Seq[TaskRec]): Seq[TaskRec] = {
    val ids = j.flatMap(_.stageIds).toSet
    tasks.filter(t => ids.contains(t.stageId))
  }

  private def straggler(runMs: Seq[Long]): Double =
    if (runMs.isEmpty) 0.0 else runMs.max / math.max(1.0, median(runMs.map(_.toDouble)))

  /** Scheduler delay of a task: waiting from its stage's submission to
    * launch, plus its time not spent deserializing, running, serializing or
    * fetching its result.
    */
  private def schedDelayMs(t: TaskRec, stageSubmitMs: Long): Long =
    math.max(0L, t.launchMs - stageSubmitMs) +
      math.max(0L, (t.finishMs - t.launchMs) - t.runMs - t.deserMs - t.resultSerMs - t.gettingResultMs)

  final case class Inputs(
      g: CSRGraph,
      traced: Timed[RunResult],
      untracedTotal: Double,
      factory: TimedFactory,
      plain: ReplayResult,
      counted: ReplayResult,
      buildIntervals: Seq[(Long, Long, Int)],
      gcS: Double,
      heapPeakMb: Double,
  )

  /** The per-layer metrics (name, value, unit) and the observed jobs. */
  def compute(tracer: Tracer, listener: JobListener, in: Inputs): (Seq[(String, Double, String)], Seq[JobRec]) = {
    val stages = listener.stages
    val tasks = listener.tasks
    val (splits, jobs) = addSparkSpans(tracer, listener.jobs, stages, tasks, in.buildIntervals)
    val bcastS = tracer.spans.filter(_.name == "graph.broadcast").map(_.durNs / 1e9)

    val walkJobs = jobs.filter(_.layer == "walk")
    val walkTasks = tasksOf(walkJobs, tasks)
    val walkJobS = walkJobs.map(_.seconds).sum
    val walkRun = walkTasks.map(_.runMs)
    val submit = stages.map(s => s.id -> s.submitMs).toMap
    val initNanos = walkTasks.map(_.accums.getOrElse("initNanos", 0L)).sum

    val learnJobs = jobs.filter(_.layer == "learn").sortBy(_.id)
    val learnTasks = tasksOf(learnJobs, tasks)
    val learnFit = if (learnJobs.isEmpty) 0.0 else (learnJobs.map(_.endMs).max - learnJobs.head.startMs) / 1e3
    val busiestLearnStage = learnTasks.groupBy(t => (t.stageId, t.stageAttempt)).values
      .maxByOption(_.map(_.runMs).sum).getOrElse(Nil)

    val r = in.traced.value
    val p = in.plain
    val self = SelfTime.byLayer(tracer.spans)
    def per(a: Double, b: Double) = if (b == 0) 0.0 else a / b

    val metrics = Seq(
      ("graph.gen_s", median(splits.map(_._1)), "s"),
      ("graph.csr_s", median(splits.map(_._2)), "s"),
      ("graph.broadcast_s", median(bcastS), "s"),
      ("graph.bytes", in.g.storageBytes.toDouble, "bytes"),
      ("sampler.prepare_s", (in.factory.prepareEndNs - in.factory.prepareStartNs) / 1e9, "s"),
      ("sampler.ns_per_step", per(p.wallNanos, p.steps), "ns"),
      ("sampler.steady_ns_per_step", per(p.wallNanos - p.initNanos, p.steps), "ns"),
      ("sampler.init_share", per(p.initCount, p.steps), "1"),
      ("sampler.init_ns", per(p.initNanos, p.initCount), "ns"),
      ("sampler.bytes_per_state", per(p.managerBytes, p.initCount), "bytes"),
      ("sampler.weight_evals_per_step", per(in.counted.weightEvals, in.counted.steps), "1"),
      ("sampler.trials_per_step", per(p.trials, p.steps), "1"),
      ("sampler.accept_ratio", per(p.accepts, p.trials), "1"),
      ("walk.job_s", walkJobS, "s"),
      ("walk.steps_per_s", per(r.steps, walkJobS), "1/s"),
      ("walk.task_s.p50", median(walkRun.map(_ / 1e3)), "s"),
      ("walk.task_s.max", walkRun.maxOption.getOrElse(0L) / 1e3, "s"),
      ("walk.straggler", straggler(walkRun), "1"),
      ("walk.task_gc_s", walkTasks.map(_.gcMs).sum / 1e3, "s"),
      ("walk.deser_s", walkTasks.map(_.deserMs).sum / 1e3, "s"),
      ("walk.sched_delay_s", walkTasks.map(t => schedDelayMs(t, submit.getOrElse(t.stageId, t.launchMs))).sum / 1e3, "s"),
      ("walk.init_cpu_share", per(initNanos / 1e6, walkRun.sum.toDouble), "1"),
      ("pipeline.token_pass_s", jobs.filter(_.layer == "pipeline").map(_.seconds).sum, "s"),
      ("pipeline.overhead_s", in.traced.wallS - r.times.tInit - r.times.tWalk - r.times.tLearn, "s"),
      ("learn.fit_s", learnFit, "s"),
      ("learn.tokens_per_s", per(r.tokenCount, learnFit), "1/s"),
      ("learn.vocab_s", learnJobs.headOption.map(_.seconds).getOrElse(0.0), "s"),
      ("learn.train_s", learnJobs.drop(1).map(_.seconds).sum, "s"),
      ("learn.task_gc_s", learnTasks.map(_.gcMs).sum / 1e3, "s"),
      ("learn.shuffle_mb", learnTasks.map(_.shuffleWriteBytes).sum / 1e6, "MB"),
      ("learn.straggler", straggler(busiestLearnStage.map(_.runMs)), "1"),
      ("jvm.gc_s", in.gcS, "s"),
      ("jvm.heap_peak_mb", in.heapPeakMb, "MB"),
    ) ++ Layers.All.map(l => (s"trace.self_s.$l", self.getOrElse(l, 0.0), "s")) :+
      (("trace.overhead_s", in.traced.net(in.traced.wallS) - in.untracedTotal, "s"))
    (metrics, jobs)
  }
}
