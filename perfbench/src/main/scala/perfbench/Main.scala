package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.{ManagementFactory, MemoryType}

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession

import repro.core.{Pipeline, RunResult}
import repro.graph.{CSRGraph, GraphGen}

/** A metric value with its unit, as printed and as recorded. */
final case class Metric(value: Double, unit: String)

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --work <dir> [--commit <id>]`. Prints a report, then one JSON result as
  * the last line of standard output. Exit code 0 when the correctness gate
  * passes, 1 when it fails, 2 on bad arguments.
  */
object Main {

  /** Graph set-ups per run; `setup_s` reports their median. */
  val SetupReps = 3
  /** Untimed pipeline runs before timing: the first runs after set-up are
    * still compiling the walk and word2vec loops and read consistently slower.
    */
  val WarmupRuns = 2
  /** Walk-only pipelines that time `walk_s` on workloads that learn, and
    * their untimed warm-up.
    */
  val WalkRuns = 25
  val WalkWarmupRuns = 5
  /** Timed pipeline runs per invocation, at least and at most. */
  val MinRuns = 4
  val MaxRuns = 50

  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean,
                        work: File, commit: String)

  private def fail(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg")
    sys.exit(2)
  }

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => fail(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, fail(s"missing --$k"))
    val w = Workloads.byName(need("workload"))
      .getOrElse(fail(s"unknown workload; expected one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => fail(s"--trace must be 0 or 1, got $t")
    }
    val seed = need("seed").toLongOption.getOrElse(fail("--seed must be an integer"))
    val seconds = need("seconds").toIntOption.filter(_ > 0).getOrElse(fail("--seconds must be a positive integer"))
    Opts(w, seed, seconds, trace, new File(need("work")), kv.getOrElse("commit", "unknown"))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def startSpark(threads: Int, work: File, app: String): SparkSession =
    SparkSession.builder
      .master(s"local[$threads]")
      .appName(app)
      // The same SQL settings as the program's spark-submit entry points.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(work, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getAbsolutePath)
      .getOrCreate()

  /** One timed `Pipeline.run`, after settling the heap. */
  def timedRun(spark: SparkSession, bc: Broadcast[CSRGraph], w: Workload, seed: Long): Timed[RunResult] = {
    System.gc()
    Timed(Pipeline.run(spark, bc, w.makeModel(), w.makeFactory(), w.runConfig(seed)))
  }

  /** One timed walk-only `Pipeline.run` (`learn = false`). */
  def walkOnlyRun(spark: SparkSession, bc: Broadcast[CSRGraph], w: Workload, seed: Long): Timed[RunResult] =
    Timed(Pipeline.run(spark, bc, w.makeModel(), w.makeFactory(), w.runConfig(seed).copy(learn = false)))

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    o.work.mkdirs()
    val expectedWalks = GraphGen.datasets(o.workload.dataset).numNodes.toLong * o.workload.numWalks
    val (json, ok) =
      try {
        val r = new BenchRun(o).run()
        (r, r("correct") == true)
      } catch {
        case NonFatal(e) =>
          e.printStackTrace()
          // A run that throws counts every walk as failed.
          (mutable.LinkedHashMap[String, Any]("correct" -> false, "attempted" -> expectedWalks,
            "failed" -> expectedWalks, "metrics" -> Map.empty), false)
      }
    println(Json.render(json))
    System.out.flush()
    sys.exit(if (ok) 0 else 1)
  }
}

/** One invocation: set-up, timed runs, optional traced run, gate, report. */
final class BenchRun(o: Main.Opts) {
  import Main._

  private val w = o.workload
  private val seed = o.seed
  private val threads = math.max(1, math.min(Workloads.Partitions, Runtime.getRuntime.availableProcessors()))
  private val tracer = new Tracer
  private val listener = new JobListener
  private val report = mutable.LinkedHashMap[String, Metric]()
  private val extra = mutable.LinkedHashMap[String, Any]()

  private def put(name: String, value: Double, unit: String): Unit = report(name) = Metric(value, unit)

  def run(): mutable.LinkedHashMap[String, Any] = {
    val t0 = System.nanoTime()
    val spark = startSpark(threads, o.work, s"perfbench-${w.name}")
    val sessionS = (System.nanoTime() - t0) / 1e9
    val sc = spark.sparkContext
    sc.setLogLevel("WARN")
    try body(spark, sessionS) finally spark.stop()
  }

  private def body(spark: SparkSession, sessionS: Double): mutable.LinkedHashMap[String, Any] = {
    val sc = spark.sparkContext
    val cfg = w.datasetConfig(seed)
    // Set-up: generation + CSR build + broadcast, several times; keep the
    // last. The first set-up also pays for JIT and Spark SQL warm-up and is
    // the slowest; the median leaves it out.
    val root = tracer.begin("workload", "bench")
    if (o.trace) sc.addSparkListener(listener)
    val buildIntervals = mutable.ArrayBuffer[(Long, Long, Int)]()
    var bc: Broadcast[CSRGraph] = null
    val setups = (1 to SetupReps).map { _ =>
      if (bc != null) bc.destroy()
      System.gc()
      Timed(tracer.span("setup", "graph") {
        val b0 = System.nanoTime()
        val g = GraphGen.buildCSR(spark, cfg)
        buildIntervals += ((b0, System.nanoTime(), tracer.current))
        bc = tracer.span("graph.broadcast", "graph")(sc.broadcast(g))
      })
    }
    val g = bc.value
    put("setup_s", median(setups.map(t => t.net(t.wallS))), "s")
    extra("spark_start_s") = sessionS
    extra("setup_s_samples") = setups.map(_.wallS)
    extra("setup_steal_shares") = setups.map(_.steal)
    if (o.trace) { listener.sync(sc); sc.removeSparkListener(listener) }

    // Untraced pipeline runs: WarmupRuns untimed, then at least MinRuns
    // timed, and as many more as fit in the measured window.
    val timed = mutable.ArrayBuffer[Timed[RunResult]]()
    val warm = tracer.span("untraced.runs", "bench") {
      val untimed = (1 to WarmupRuns).map(_ => timedRun(spark, bc, w, seed).value)
      val deadline = System.nanoTime() + o.seconds * 1000000000L
      while (timed.size < MinRuns || (System.nanoTime() < deadline && timed.size < MaxRuns))
        timed += timedRun(spark, bc, w, seed)
      untimed
    }
    val totals = timed.map(t => t.net(t.wallS)).toSeq
    val runs = timed.map(_.value).toSeq
    put("total_s", median(totals), "s")
    extra("total_s_samples") = totals
    // Where word2vec follows the walk, the walk phase is a small part of a
    // pipeline (about 60 ms on deepwalk-embed, mostly Spark task latency)
    // and a few samples do not pin it down: time it over walk-only
    // pipelines, which run the same walk with the same configuration.
    val walkRuns =
      if (!w.learn) timed.toSeq
      else tracer.span("untraced.walk_runs", "bench") {
        (1 to WalkWarmupRuns).foreach(_ => walkOnlyRun(spark, bc, w, seed))
        (1 to WalkRuns).map(_ => walkOnlyRun(spark, bc, w, seed))
      }
    put("walk_s", median(walkRuns.map(t => t.net(t.value.times.tInit + t.value.times.tWalk))), "s")
    put("learn_s", median(timed.map(t => t.net(t.value.times.tLearn)).toSeq), "s")
    extra("total_s_raw_samples") = timed.map(_.wallS)
    extra("walk_s_raw_samples") = walkRuns.map(t => t.value.times.tInit + t.value.times.tWalk)
    extra("steal_shares") = timed.map(_.steal)
    val steal = timed.map(_.steal).filterNot(_.isNaN)
    put("sampler_mb", (runs.head.samplerLocalBytes + runs.head.samplerSharedBytes) / 1e6, "MB")

    val traced =
      if (o.trace) Some(tracedSection(spark, bc, g, report("total_s").value, buildIntervals.toSeq))
      else None
    tracer.end(root)

    // Correctness gate on a regenerated corpus.
    val gateT0 = System.nanoTime()
    val walkOnly = if (w.learn) walkRuns.map(_.value) else Nil
    val gate = Gate.run(spark, bc, w, seed, warm ++ runs ++ walkOnly ++ traced.map(_._2).toSeq)
    extra("gate_s") = (System.nanoTime() - gateT0) / 1e9
    // Problems found here concern the runs as a whole and fail every walk.
    val global = mutable.ArrayBuffer[String]()
    val counters = (warm ++ runs).map(r => (r.trials, r.initCount, r.samplerLocalBytes)).distinct
    if (counters.size != 1) global += s"timed runs disagree on (trials, inits, LAST_x bytes): $counters"
    traced.foreach { case (replays, _, _) =>
      if (replays.exists(_.corpusHash != gate.partitionHashes(0)))
        global += "replay of partition 0 differs from its corpus"
    }
    val problems = gate.problems ++ global
    val failed = if (global.nonEmpty) gate.walks else gate.badWalks
    put("transition_tv", gate.transitionTv, "1")
    extra("transition_tv_states") = gate.tvStates
    put("failed_walk_ratio", failed.toDouble / gate.walks.max(1L), "1")
    problems.foreach(p => System.err.println(s"perfbench: correctness: $p"))

    val header = headerOf(g, runs, if (steal.isEmpty) Double.NaN else steal.sum / steal.size)
    val endToEnd = Seq("setup_s", "total_s", "walk_s", "sampler_mb", "transition_tv")
    val contractNames = traced.map(_._3).getOrElse(endToEnd)
    printReport(header, problems)
    writeRecords(header, problems)

    val metrics = mutable.LinkedHashMap[String, Any]()
    contractNames.foreach { n =>
      val m = report(n)
      metrics(n) = mutable.LinkedHashMap("value" -> m.value, "unit" -> m.unit)
    }
    mutable.LinkedHashMap("correct" -> problems.isEmpty, "attempted" -> gate.walks,
                          "failed" -> failed, "metrics" -> metrics)
  }

  /** The traced run: a listener-observed `Pipeline.run` with a timed
    * factory, then the Spark-free sampler replays. Returns the replays, the
    * traced run's result and the names of the per-layer metrics.
    */
  private def tracedSection(spark: SparkSession, bc: Broadcast[CSRGraph], g: CSRGraph,
                            untracedTotal: Double,
                            buildIntervals: Seq[(Long, Long, Int)]): (Seq[ReplayResult], RunResult, Seq[String]) = {
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    val factory = new TimedFactory(w.makeFactory())
    val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
    val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq
    var pipelineSpan = -1
    System.gc()
    heapPools.foreach(_.resetPeakUsage())
    val gc0 = gcBeans.map(_.getCollectionTime).sum
    val traced = tracer.span("pipeline.run", "pipeline") {
      pipelineSpan = tracer.current
      Timed(Pipeline.run(spark, bc, w.makeModel(), factory, w.runConfig(seed)))
    }
    val run = traced.value
    val gcS = (gcBeans.map(_.getCollectionTime).sum - gc0) / 1e3
    val heapPeakMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1e6
    tracer.record("sampler.prepare", "sampler", factory.prepareStartNs, factory.prepareEndNs, pipelineSpan)
    listener.sync(sc)
    sc.removeSparkListener(listener)

    val replays = tracer.span("sampler.replay", "sampler") {
      // Timing replay with the plain model, then a counting replay.
      val plain = Replay.run(g, w.makeModel(), w.makeFactory(), w.numWalks, w.walkLen,
                             Workloads.Partitions, seed, pid = 0)
      val counted = Replay.run(g, new CountingModel(w.makeModel()), w.makeFactory(), w.numWalks,
                               w.walkLen, Workloads.Partitions, seed, pid = 0)
      Seq(plain, counted)
    }
    val (metrics, jobs) = PerLayer.compute(tracer, listener, PerLayer.Inputs(
      g, traced, untracedTotal, factory, replays(0), replays(1), buildIntervals, gcS, heapPeakMb))
    metrics.foreach { case (n, v, u) => put(n, v, u) }
    extra("spark_jobs") = jobs.map(j => f"${j.layer} ${j.seconds}%.3fs ${j.callSite}")
    (replays, run, metrics.map(_._1))
  }

  private def headerOf(g: CSRGraph, runs: Seq[RunResult], steal: Double): mutable.LinkedHashMap[String, Any] = {
    val rt = Runtime.getRuntime
    val r = runs.head
    mutable.LinkedHashMap(
      "workload" -> w.name, "why" -> w.why, "seed" -> seed, "trace" -> o.trace,
      "commit" -> o.commit, "nproc" -> rt.availableProcessors(), "spark_threads" -> threads,
      "driver_heap_mb" -> rt.maxMemory() / (1L << 20),
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "dataset" -> w.dataset, "nodes" -> g.numNodes, "directed_edges" -> g.numDirectedEdges,
      "max_degree" -> g.maxDegree, "walks_per_node" -> w.numWalks, "walk_len" -> w.walkLen,
      "partitions" -> Workloads.Partitions, "learn" -> w.learn,
      "timed_runs" -> runs.size, "seconds" -> o.seconds, "cpu_steal_share" -> steal,
      "init_share" -> r.initCount.toDouble / r.steps,
      "learn_share" -> report("learn_s").value / report("total_s").value,
    )
  }

  private def printReport(header: mutable.LinkedHashMap[String, Any], problems: Seq[String]): Unit = {
    println(s"# perfbench ${w.name} seed=$seed trace=${if (o.trace) 1 else 0}")
    println(s"header ${Json.render(header)}")
    extra.foreach { case (k, v) => println(s"$k ${Json.render(v)}") }
    report.foreach { case (k, m) => println(f"metric $k%-28s ${m.value}%14.6f ${m.unit}") }
    problems.foreach(p => println(s"problem $p"))
  }

  private def writeRecords(header: mutable.LinkedHashMap[String, Any], problems: Seq[String]): Unit = {
    val tag = s"${w.name}-seed$seed-trace${if (o.trace) 1 else 0}"
    val dir = new File(o.work, "results"); dir.mkdirs()
    val rec = mutable.LinkedHashMap[String, Any](
      "header" -> header, "problems" -> problems,
      "metrics" -> report.map { case (k, m) => k -> Map("value" -> m.value, "unit" -> m.unit) },
      "details" -> extra)
    write(new File(dir, s"$tag.json"), Json.render(rec))
    if (o.trace) {
      val spans = tracer.spans.map(s => mutable.LinkedHashMap(
        "id" -> s.id, "parent" -> s.parent, "name" -> s.name, "layer" -> s.layer,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs))
      write(new File(dir, s"$tag-spans.json"), Json.render(spans))
    }
  }

  private def write(f: File, s: String): Unit = {
    val pw = new PrintWriter(f, "UTF-8")
    try pw.println(s) finally pw.close()
  }
}

/** A wall-clock measurement of `value` and the CPU steal share over it. */
final case class Timed[T](wallS: Double, steal: Double, value: T) {

  /** `seconds` net of the time the hypervisor ran other guests instead:
    * `seconds * (1 - steal)`; unchanged where steal is not reported.
    */
  def net(seconds: Double): Double = if (steal.isNaN) seconds else seconds * (1 - steal)
}

object Timed {
  def apply[T](body: => T): Timed[T] = {
    val s0 = CpuSteal.sample()
    val t0 = System.nanoTime()
    val v = body
    Timed((System.nanoTime() - t0) / 1e9, CpuSteal.shareSince(s0), v)
  }
}

/** Share of CPU time the hypervisor gave to other guests (the `steal`
  * column of /proc/stat), a record of how noisy the machine was while the
  * benchmark ran. Absent (NaN) where /proc/stat is not readable.
  */
object CpuSteal {
  /** (steal ticks, total ticks), or null when unavailable. */
  def sample(): (Long, Long) =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      val cpu = try src.getLines().next() finally src.close()
      val ticks = cpu.split("\\s+").drop(1).map(_.toLong)
      (if (ticks.length > 7) ticks(7) else 0L, ticks.take(8).sum)
    } catch { case NonFatal(_) => null }

  def shareSince(start: (Long, Long)): Double = {
    val end = sample()
    if (start == null || end == null || end._2 == start._2) Double.NaN
    else (end._1 - start._1).toDouble / (end._2 - start._2)
  }
}
