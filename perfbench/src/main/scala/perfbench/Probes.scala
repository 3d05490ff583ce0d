package perfbench

import java.util.SplittableRandom

import repro.core.{RandomWalkModel, UniNet, WalkState}
import repro.graph.CSRGraph
import repro.sampler.{EdgeSampler, MHSampler, SamplerFactory}

/** Delegates every member to `inner` and counts dynamic-weight
  * evaluations (`calculateWeight` and `bias` calls). Counting is
  * single-threaded: use it only in the Spark-free replay.
  */
final class CountingModel(val inner: RandomWalkModel) extends RandomWalkModel {
  var weightEvals: Long = 0L

  override def name: String = inner.name
  override def isSecondOrder: Boolean = inner.isSecondOrder
  override def calculateWeight(g: CSRGraph, s: WalkState, e: Int): Double = {
    weightEvals += 1
    inner.calculateWeight(g, s, e)
  }
  override def updateState(g: CSRGraph, s: WalkState, e: Int): WalkState = inner.updateState(g, s, e)
  override def initialState(g: CSRGraph, start: Int): WalkState = inner.initialState(g, start)
  override def bucketSize(g: CSRGraph, v: Int): Int = inner.bucketSize(g, v)
  override def affixture(g: CSRGraph, s: WalkState): Int = inner.affixture(g, s)
  override def stateFor(g: CSRGraph, v: Int, affix: Int): WalkState = inner.stateFor(g, v, affix)
  override def bias(g: CSRGraph, s: WalkState, e: Int): Double = {
    weightEvals += 1
    inner.bias(g, s, e)
  }
  override def maxBias: Double = inner.maxBias
  override def minBias: Double = inner.minBias
  override def outlierEdge(g: CSRGraph, s: WalkState): Int = inner.outlierEdge(g, s)
  override def foldedMaxBias: Double = inner.foldedMaxBias
  override def numStates(g: CSRGraph): Long = inner.numStates(g)
}

/** Delegates to `inner` and records the driver-side wall interval of
  * `prepare`. `create` returns the real sampler, so the engine's
  * `MHSampler` match (LAST_x bytes) still sees it.
  */
final class TimedFactory(val inner: SamplerFactory) extends SamplerFactory {
  var prepareStartNs: Long = 0L
  var prepareEndNs: Long = 0L

  override def name: String = inner.name
  override def prepare(g: CSRGraph, model: RandomWalkModel, parallel: Boolean): Unit = {
    prepareStartNs = System.nanoTime()
    inner.prepare(g, model, parallel)
    prepareEndNs = System.nanoTime()
  }
  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler = inner.create(g, model)
  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long = inner.memoryBytes(g, model)
}

/** Result of replaying one partition's walkers without Spark. */
final case class ReplayResult(
    walks: Long,
    steps: Long,
    trials: Long,
    accepts: Long,
    initCount: Long,
    initNanos: Long,
    managerBytes: Long,
    wallNanos: Long,
    weightEvals: Long,
    corpusHash: Long,
)

/** Single-threaded replay of partition `pid`'s walkers: the same walker
  * range, start nodes and RNG seed derivation as `UniNet.generateWalks`,
  * driven through `factory.create` + `UniNet.runWalk`.
  */
object Replay {

  /** First walker index of partition `pid` in `sc.range(0, total, 1, parts)`. */
  def sliceStart(pid: Int, total: Long, parts: Int): Long = pid.toLong * total / parts

  def run(g: CSRGraph, model: RandomWalkModel, factory: SamplerFactory, numWalks: Int,
          walkLen: Int, parts: Int, seed: Long, pid: Int): ReplayResult = {
    val n = g.numNodes
    val total = n.toLong * numWalks
    val lo = sliceStart(pid, total, parts)
    val hi = sliceStart(pid + 1, total, parts)
    val counting = model match { case c: CountingModel => Some(c); case _ => None }
    val sampler = factory.create(g, model)
    counting.foreach(_.weightEvals = 0L)
    val rng = new SplittableRandom(seed * 1000003L + pid)
    var hash = CorpusHash.Seed
    val t0 = System.nanoTime()
    var i = lo
    while (i < hi) {
      hash = CorpusHash.mixWalk(hash, UniNet.runWalk(g, model, sampler, (i % n).toInt, walkLen, rng))
      i += 1
    }
    val wall = System.nanoTime() - t0
    val st = sampler.stats
    val mgr = sampler match { case m: MHSampler => m.managerBytes; case _ => 0L }
    ReplayResult(hi - lo, st.steps, st.trials, st.accepts, st.initCount, st.initNanos, mgr,
                 wall, counting.map(_.weightEvals).getOrElse(0L), hash)
  }
}

/** Order-sensitive hash of a walk corpus partition. */
object CorpusHash {
  val Seed: Long = 0x9E3779B97F4A7C15L

  def mixWalk(h0: Long, walk: Array[Int]): Long = {
    var h = h0 ^ walk.length
    var j = 0
    while (j < walk.length) {
      h = (h ^ walk(j)) * 0x100000001B3L
      h ^= h >>> 29
      j += 1
    }
    h * 0xBF58476D1CE4E5B9L
  }
}
