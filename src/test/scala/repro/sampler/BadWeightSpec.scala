package repro.sampler

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.{RandomWalkModel, WalkState}
import repro.graph.CSRGraph
import repro.model.DeepWalk

/** A NaN or negative dynamic weight fails loudly under every sampler,
  * naming the model, the state and the edge, instead of silently skewing
  * or freezing the walk.
  */
class BadWeightSpec extends AnyFunSuite {
  private val g = TestGraphs.weightedStar(4)
  private val badEdge = g.offset(0) + 2

  /** Deepwalk, except that `badEdge` has dynamic weight `w`. */
  private final class OneBadEdge(w: Double) extends RandomWalkModel {
    private val inner = new DeepWalk
    override val name = "one-bad-edge"
    override val isSecondOrder = false
    override def calculateWeight(g: CSRGraph, s: WalkState, e: Int): Double =
      if (e == badEdge) w else inner.calculateWeight(g, s, e)
    override def updateState(g: CSRGraph, s: WalkState, e: Int): WalkState =
      inner.updateState(g, s, e)
    override def initialState(g: CSRGraph, start: Int): WalkState = inner.initialState(g, start)
    override def bucketSize(g: CSRGraph, v: Int): Int = inner.bucketSize(g, v)
    override def affixture(g: CSRGraph, s: WalkState): Int = inner.affixture(g, s)
    override def stateFor(g: CSRGraph, v: Int, affix: Int): WalkState = inner.stateFor(g, v, affix)
    override val maxBias = inner.maxBias
    override val minBias = inner.minBias
  }

  private val samplers: Seq[(String, () => SamplerFactory)] = Seq(
    "direct" -> (() => DirectSamplerFactory),
    "alias" -> (() => new AliasSamplerFactory),
    "rejection" -> (() => new RejectionSamplerFactory(knightKing = false)),
    "memory-aware(max)" -> (() => new MemoryAwareSamplerFactory(Long.MaxValue)),
    "mh(Rand)" -> (() => new MHSamplerFactory(RandomInit)),
    "mh(Weight)" -> (() => new MHSamplerFactory(HighWeightInit())),
  )

  for ((sName, factory) <- samplers; w <- Seq(Double.NaN, -1.0)) {
    test(s"$sName throws on dynamic weight $w") {
      val m = new OneBadEdge(w)
      val s = m.initialState(g, 0)
      val err = intercept[IllegalArgumentException] {
        val f = factory()
        f.prepare(g, m, parallel = false)
        val smp = f.create(g, m)
        val rng = new SplittableRandom(8L)
        (0 until 1000).foreach(_ => smp.sample(s, rng))
      }
      val msg = err.getMessage
      assert(msg.contains(m.name) && msg.contains(s"edge $badEdge") && msg.contains(s.toString), msg)
    }
  }
}
