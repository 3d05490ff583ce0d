package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.core.{Pipeline, RunConfig}
import repro.graph.GraphGen
import repro.model.DeepWalk
import repro.sampler.{HighWeightInit, MHSamplerFactory}

class SparkLayersSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder.master("local[2]").appName("perfbench-test")
    .config("spark.ui.enabled", "false").getOrCreate()

  override def afterAll(): Unit = spark.stop()

  // A ring of 12 nodes with chords: connected, every degree >= 2.
  private lazy val g = GraphGen.fromTriples(12,
    (0 until 12).map(i => (i, (i + 1) % 12, 1.0)) ++ (0 until 6).map(i => (i, i + 6, 2.0)))

  private val cfg = RunConfig(numWalks = 2, walkLen = 5, partitions = 2, seed = 4L, learn = true,
                              dim = 4, learnPartitions = 2)

  test("the listener maps the walk, token-pass and word2vec jobs to their layers") {
    val sc = spark.sparkContext
    val bc = sc.broadcast(g)
    val listener = new JobListener
    sc.addSparkListener(listener)
    try {
      Pipeline.run(spark, bc, new DeepWalk, new MHSamplerFactory(HighWeightInit()), cfg)
      listener.sync(sc)
    } finally sc.removeSparkListener(listener)
    val layers = listener.jobs.map(_.layer)
    assert(layers.count(_ == "walk") == 1, listener.jobs)
    assert(layers.count(_ == "pipeline") == 1, listener.jobs)
    assert(layers.count(_ == "learn") >= 1, listener.jobs)
    assert(layers.forall(Set("walk", "pipeline", "learn")), listener.jobs)
    val walkJob = listener.jobs.find(_.layer == "walk").get
    val walkTasks = listener.tasks.filter(t => walkJob.stageIds.contains(t.stageId))
    assert(walkTasks.size == 2 && walkTasks.forall(_.accums.contains("steps")))
  }

  test("the gate passes a correct run and flags double-counted steps") {
    val bc = spark.sparkContext.broadcast(g)
    val w = Workload("test", "none", () => new DeepWalk, () => new MHSamplerFactory(HighWeightInit()),
                     numWalks = cfg.numWalks, walkLen = cfg.walkLen, learn = true, why = "test")
    val r = Pipeline.run(spark, bc, w.makeModel(), w.makeFactory(), w.runConfig(cfg.seed))
    val ok = Gate.run(spark, bc, w, cfg.seed, Seq(r))
    assert(ok.passed, ok.problems)
    assert(ok.walks == 24 && ok.tokens == 24 * 6 && ok.steps == 24 * 5)
    assert(ok.transitionTv >= 0 && ok.transitionTv < 1)
    val bad = Gate.run(spark, bc, w, cfg.seed, Seq(r.copy(steps = 2 * r.steps)))
    assert(!bad.passed && bad.badWalks == 24)
  }
}
