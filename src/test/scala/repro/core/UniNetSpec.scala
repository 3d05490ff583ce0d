package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.model.{DeepWalk, MetaPath2Vec, Node2Vec}
import repro.sampler._

/** Walker life cycle on Spark (Alg. 2): counts, lengths, edge validity,
  * parallel independence, and stats plumbing.
  */
class UniNetSpec extends SparkSpec {
  private lazy val g = TestGraphs.mediumGraph(n = 100, mult = 3)
  private lazy val bcG = spark.sparkContext.broadcast(g)

  private def walks(model: RandomWalkModel, k: Int = 2, len: Int = 10,
                    parts: Int = 4, seed: Long = 3L) = {
    val (rdd, acc) = UniNet.generateWalks(
      spark, bcG, model, new MHSamplerFactory(HighWeightInit()), k, len, parts, seed)
    (rdd.collect(), acc)
  }

  test("K walks per node are generated (Alg. 2's outer loops)") {
    val (ws, _) = walks(new DeepWalk, k = 3)
    assert(ws.length == 3 * g.numNodes)
    val starts = ws.map(_.head).groupBy(identity).view.mapValues(_.length)
    (0 until g.numNodes).foreach(v => assert(starts(v) == 3))
  }

  test("walks have length L+1 on a connected graph") {
    val (ws, _) = walks(new DeepWalk, len = 15)
    assert(ws.forall(_.length == 16))
  }

  test("every consecutive pair in a walk is an edge") {
    val (ws, _) = walks(new Node2Vec(0.5, 2.0))
    ws.foreach { w =>
      w.sliding(2).foreach {
        case Array(a, b) => assert(g.hasEdge(a, b), s"($a,$b) not an edge")
        case _           =>
      }
    }
  }

  test("same seed reproduces the same walks; different seeds differ") {
    val (a, _) = walks(new DeepWalk, seed = 5)
    val (b, _) = walks(new DeepWalk, seed = 5)
    val (c, _) = walks(new DeepWalk, seed = 6)
    assert(a.map(_.toSeq).toSeq == b.map(_.toSeq).toSeq)
    assert(a.map(_.toSeq).toSeq != c.map(_.toSeq).toSeq)
  }

  test("step counters add up to the walk work") {
    val (ws, acc) = walks(new DeepWalk, k = 1, len = 10)
    // Connected graph: every walker takes exactly `len` steps.
    assert(acc.steps.value == ws.map(_.length - 1).sum)
    assert(acc.steps.value == g.numNodes * 10L)
  }

  test("init happens once per touched state across a partition") {
    val (_, acc) = walks(new DeepWalk, k = 4, len = 10, parts = 1)
    // Deepwalk: one state per node; a single partition initializes each
    // visited node's sampler exactly once.
    assert(acc.initCount.value <= g.numNodes)
    assert(acc.initCount.value > 0)
  }

  test("metapath walks terminate early when stuck and never violate types") {
    val t = TestGraphs.typedGraph
    val bcT = spark.sparkContext.broadcast(t)
    val m = new MetaPath2Vec(Array(0, 1))
    val (rdd, _) = UniNet.generateWalks(
      spark, bcT, m, new MHSamplerFactory(HighWeightInit()), 2, 8, 2, 9L)
    val ws = rdd.collect()
    assert(ws.length == 2 * t.numNodes)
    // Walks from type-2 nodes are stuck immediately (length 1).
    ws.filter(w => t.nodeType(w.head) == 2).foreach(w => assert(w.length == 1))
    // Type sequence alternates 0,1,0,1,... for walks that do move.
    ws.filter(_.length > 1).foreach { w =>
      val t0 = t.nodeType(w.head)
      w.zipWithIndex.foreach { case (node, i) =>
        assert(t.nodeType(node) == (t0 + i) % 2)
      }
    }
    bcT.destroy()
  }

  test("direct-sampler walks match the same interface (factory swap)") {
    val (rdd, acc) = UniNet.generateWalks(
      spark, bcG, new DeepWalk, DirectSamplerFactory, 1, 5, 2, 13L)
    val ws = rdd.collect()
    assert(ws.length == g.numNodes)
    assert(acc.trials.value > acc.steps.value) // O(deg) work per step
  }

  test("partition count is honored") {
    val (rdd, _) = UniNet.generateWalks(
      spark, bcG, new DeepWalk, new MHSamplerFactory(HighWeightInit()), 1, 3, 7, 21L)
    assert(rdd.getNumPartitions == 7)
    rdd.count()
  }

  private def counters(acc: WalkJob): Seq[Long] =
    Seq(acc.steps, acc.trials, acc.accepts, acc.preAccepts, acc.fallbacks,
        acc.initNanos, acc.initCount, acc.localBytes).map(_.value)

  test("a second action on the corpus leaves every counter unchanged") {
    val (rdd, acc) = UniNet.generateWalks(
      spark, bcG, new Node2Vec(0.5, 2.0), new MHSamplerFactory(HighWeightInit()), 1, 10, 4, 17L)
    rdd.count()
    val first = counters(acc)
    assert(first.head == g.numNodes * 10L)
    rdd.count()
    assert(counters(acc) == first)
  }

  test("a partial action (take) still flushes the counters") {
    val (rdd, acc) = UniNet.generateWalks(
      spark, bcG, new DeepWalk, new MHSamplerFactory(HighWeightInit()), 1, 10, 4, 19L)
    assert(rdd.take(1).length == 1)
    assert(acc.steps.value > 0)
  }

  // Spark-level golden: the walk job's corpus (collected in partition
  // order) and its counters for fixed seeds. Guards the job around
  // `runWalk` — partition split, per-partition RNG, counter flush — the
  // way `CorpusGoldenSpec` guards the Spark-free walk loop.
  private lazy val goldenGraph = TestGraphs.mediumGraph()
  private lazy val bcGolden = spark.sparkContext.broadcast(goldenGraph)

  /** (corpus hash, steps, trials, initCount, localBytes) per pair. */
  private val JobGolden: Seq[(String, () => RandomWalkModel, () => SamplerFactory,
                              (Long, Long, Long, Long, Long))] = Seq(
    ("deepwalk x mh(Weight)", () => new DeepWalk, () => new MHSamplerFactory(HighWeightInit()),
     (0x1CB2B052A8E3BBDAL, 4800L, 4800L, 785L, 3140L)),
    ("node2vec x mh(Weight)", () => new Node2Vec(0.5, 2.0),
     () => new MHSamplerFactory(HighWeightInit()),
     (0xC6CA48AA6468F298L, 4800L, 4800L, 2395L, 30568L)),
    ("node2vec x alias", () => new Node2Vec(0.5, 2.0), () => new AliasSamplerFactory,
     (0x898A7F28C940F798L, 4800L, 4800L, 0L, 0L)),
  )

  for ((name, model, factory, expected) <- JobGolden) {
    test(s"$name walk job corpus and counters are unchanged") {
      val (m, f) = (model(), factory())
      f.prepare(goldenGraph, m, parallel = false)
      val (rdd, acc) = UniNet.generateWalks(spark, bcGolden, m, f, 2, 12, 4, 2021L)
      var h = 0xCBF29CE484222325L
      rdd.collect().foreach { walk =>
        h = (h ^ walk.length) * 0x100000001B3L
        walk.foreach { u => h = (h ^ u) * 0x100000001B3L; h ^= h >>> 31 }
      }
      val actual = (h, acc.steps.value, acc.trials.value, acc.initCount.value, acc.localBytes.value)
      assert(actual == expected, f"actual (0x$h%016XL, ${actual._2}L, ${actual._3}L, " +
        s"${actual._4}L, ${actual._5}L)")
    }
  }
}
