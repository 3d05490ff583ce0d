package perfbench

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.core.WalkState
import repro.graph.GraphGen
import repro.model.{DeepWalk, Node2Vec}
import repro.sampler.{DirectSamplerFactory, HighWeightInit, MHSamplerFactory}

class GateSpec extends AnyFunSuite {

  // Star center 0 with leaves 1..4 (weights 1, 1, 2, 4), plus edges 1-2 and 3-4.
  private val g = GraphGen.fromTriples(5, Seq(
    (0, 1, 1.0), (0, 2, 1.0), (0, 3, 2.0), (0, 4, 4.0), (1, 2, 1.0), (3, 4, 1.0)))

  test("TV of a large exact (direct) sample is about 0, within a sample-size bound") {
    val model = new DeepWalk
    val sampler = DirectSamplerFactory.create(g, model)
    val rng = new SplittableRandom(7)
    val n = 200000
    val hist = new Array[Int](g.degree(0))
    val s = WalkState(-1, 0, 0)
    (0 until n).foreach(_ => hist(sampler.sample(s, rng) - g.offset(0)) += 1)
    val d = Gate.tv(hist, Gate.exactTarget(g, model, 0, 0))
    // E[TV] <= sqrt(deg / n) / 2 (Cauchy-Schwarz); TV moves by at most 1/n
    // per draw, so exceeding E[TV] + sqrt(ln(1e6) / 2n) has probability < 1e-6.
    val tol = math.sqrt(hist.length.toDouble / n) / 2 + math.sqrt(math.log(1e6) / (2.0 * n))
    assert(d < tol, s"TV $d >= $tol")
  }

  test("TV of a hand-biased histogram is the known value") {
    val target = Gate.exactTarget(g, new DeepWalk, 0, 0)
    assert(target.toSeq == Seq(0.125, 0.125, 0.25, 0.5))
    // Empirical (0.5, 0, 0, 0.5): TV = (0.375 + 0.125 + 0.25 + 0) / 2.
    assert(math.abs(Gate.tv(Array(50, 0, 0, 50), target) - 0.375) < 1e-12)
    assert(math.abs(Gate.weightedTv(Seq((1L, 0.2), (3L, 0.6))) - 0.5) < 1e-12)
  }

  test("node2vec exact target follows alpha: return 1/p, triangle 1, explore 1/q") {
    val m = new Node2Vec(p = 0.5, q = 2.0)
    // State (prev = 1, cur = 0): to 1 returns (2 * 1), to 2 closes a
    // triangle (1 * 1), to 3 and 4 explores (0.5 * 2, 0.5 * 4).
    val layout = StateLayout(g, m)
    val affix = g.neighborIndexOf(0, 1)
    val t = Gate.exactTarget(g, m, 0, affix)
    val w = Seq(2.0, 1.0, 1.0, 2.0)
    t.zip(w.map(_ / w.sum)).foreach { case (a, b) => assert(math.abs(a - b) < 1e-12) }
    assert(layout.nodeOf(layout.index(0, affix)) == 0)
    assert(layout.nodeOf(layout.index(4, 0)) == 4)
  }

  test("topStates picks the most-visited states, ties by index") {
    assert(Gate.topStates(Array(3, 0, 5, 3, 1), 3).toSeq == Seq(2, 0, 3))
  }

  test("the counting model matches a hand count for M-H steps") {
    val counting = new CountingModel(new Node2Vec(p = 0.5, q = 2.0))
    val sampler = new MHSamplerFactory(HighWeightInit()).create(g, counting)
    val rng = new SplittableRandom(3)
    val s = WalkState(1, 0, 0)
    // First visit: exact max over deg(0) = 4 <= 16 weights, then the
    // candidate's and LAST_x's weights (all node2vec weights are > 0).
    sampler.sample(s, rng)
    assert(counting.weightEvals == g.degree(0) + 2)
    assert(sampler.stats.trials == 1)
    // A revisit of the same state evaluates only the candidate and LAST_x.
    sampler.sample(s, rng)
    assert(counting.weightEvals == g.degree(0) + 4)
    assert(sampler.stats.trials == 2 && sampler.stats.initCount == 1)
  }

  test("the replay reproduces the engine's seed derivation") {
    val a = Replay.run(g, new DeepWalk, new MHSamplerFactory(HighWeightInit()), 3, 6, 2, 9L, pid = 1)
    val b = Replay.run(g, new CountingModel(new DeepWalk), new MHSamplerFactory(HighWeightInit()),
                       3, 6, 2, 9L, pid = 1)
    assert(a.walks == 8 && a.corpusHash == b.corpusHash && a.steps == b.steps)
    assert(Replay.sliceStart(1, 15, 2) == 7)
  }

  test("self time subtracts the union of child intervals") {
    val spans = Seq(
      Span(0, -1, "root", "a", 0, 100),
      Span(1, 0, "x", "b", 10, 40),
      Span(2, 0, "y", "b", 30, 60),
      Span(3, 1, "z", "c", 20, 30))
    val self = SelfTime.perSpan(spans)
    assert(self == Map(0 -> 50L, 1 -> 20L, 2 -> 30L, 3 -> 10L))
    assert(SelfTime.byLayer(spans) == Map("a" -> 50e-9, "b" -> 50e-9, "c" -> 10e-9))
  }
}
