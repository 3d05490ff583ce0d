package repro.sampler

import java.util.SplittableRandom

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.CSRGraph

/** Per-partition mutable work counters, flushed into Spark accumulators
  * when a walk task completes (see UniNet.generateWalks).
  * `trials`/`accepts` give the measured acceptance ratio of
  * rejection-style samplers (Table II); `initNanos` separates lazy
  * initialization work out of the walking phase (Ti vs Tw in Table VI).
  */
final class LocalStats {
  var steps: Long = 0
  var trials: Long = 0
  var accepts: Long = 0
  var preAccepts: Long = 0
  var fallbacks: Long = 0
  var initNanos: Long = 0
  var initCount: Long = 0
}

/** A stateful edge sampler bound to one (graph, model) pair, owned by one
  * walker-executing partition. `sample` returns the chosen *global edge
  * index* (the next step is its destination), or -1 when the state admits
  * no edge and the walk must terminate.
  *
  * The bookkeeping every sampler shares lives here; a sampler implements
  * only its `draw`.
  */
abstract class EdgeSampler(g: CSRGraph, model: RandomWalkModel) {
  final val stats = new LocalStats

  /** Bytes of partition-local sampler state allocated so far. */
  def localBytes: Long = 0L

  final def sample(s: WalkState, rng: SplittableRandom): Int = {
    val d = g.degree(s.cur)
    if (d == 0) return -1
    stats.steps += 1
    draw(s, d, rng)
  }

  /** One draw for state `s`, whose node has degree `d` > 0. */
  protected def draw(s: WalkState, d: Int, rng: SplittableRandom): Int

  /** The O(deg) direct draw, counting its `d` weight evaluations as trials. */
  protected final def directStep(s: WalkState, d: Int, rng: SplittableRandom): Int = {
    stats.trials += d
    SamplerUtil.directDraw(g, model, s, rng)
  }

  /** Lazy per-state initialization is timed between `initStart()` and
    * `initDone(t0)`, a pair rather than a by-name block, so init-heavy
    * walks allocate no closure per init.
    */
  protected final def initStart(): Long = System.nanoTime()

  protected final def initDone(t0: Long): Unit = {
    stats.initNanos += System.nanoTime() - t0
    stats.initCount += 1
  }
}

/** Factory for [[EdgeSampler]]s. `prepare` runs once on the driver and
  * builds the shared immutable structures (alias tables over static
  * weights, precomputed per-state tables, budget assignments); its wall
  * time is the initialization cost Ti of Tables VI/VII. The prepared
  * factory is broadcast; `create` then instantiates the cheap per-partition
  * mutable part.
  */
trait SamplerFactory extends Serializable {
  def name: String

  /** Driver-side preparation; `parallel = false` emulates the
    * single-threaded reference implementations in the baseline runs.
    */
  def prepare(g: CSRGraph, model: RandomWalkModel, parallel: Boolean): Unit = ()

  def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler

  /** Bytes of sampler-owned state at *this* graph's scale (excludes the
    * CSR itself); the paper-scale OOM accounting lives in [[MemoryModel]].
    */
  def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long
}

private[sampler] object SamplerUtil {

  /** O(deg) direct draw from the dynamic weights of N(s.cur): the direct
    * edge sampler's core, also every other sampler's fallback when its
    * fast path cannot make progress. Returns a global edge index or -1.
    */
  def directDraw(g: CSRGraph, model: RandomWalkModel, s: WalkState,
                 rng: SplittableRandom): Int = {
    val lo = g.offset(s.cur)
    val w = dynamicWeights(g, model, s)
    var total = 0.0
    var j = 0
    while (j < w.length) { total += w(j); j += 1 }
    if (total <= 0) return -1
    var r = rng.nextDouble() * total
    j = 0
    while (j < w.length) {
      r -= w(j)
      if (r <= 0) return lo + j
      j += 1
    }
    lo + w.length - 1
  }

  /** Dynamic weights of N(s.cur) under state `s` (alias builds, direct draws). */
  def dynamicWeights(g: CSRGraph, model: RandomWalkModel, s: WalkState): Array[Double] = {
    val lo = g.offset(s.cur); val d = g.degree(s.cur)
    val w = new Array[Double](d)
    var j = 0
    while (j < d) {
      val x = model.calculateWeight(g, s, lo + j)
      w(j) = if (permitted(g, model, s, lo + j, x)) x else 0.0
      j += 1
    }
    w
  }

  /** Whether `w`, edge `e`'s dynamic weight (or bias w'/w) under state `s`,
    * permits the edge; 0 forbids it, NaN or negative throws. The throw is
    * out of line, so hot loops inline one comparison for a positive `w`.
    */
  @inline def permitted(g: CSRGraph, model: RandomWalkModel, s: WalkState, e: Int,
                        w: Double): Boolean =
    w > 0 || (w != 0 && badWeight(g, model, s, e, w))

  private def badWeight(g: CSRGraph, model: RandomWalkModel, s: WalkState, e: Int,
                        w: Double): Nothing =
    throw new IllegalArgumentException(
      s"${model.name}: edge $e (${s.cur} -> ${g.dst(e)}) under state $s has dynamic " +
      s"weight or bias $w; both must be >= 0")

  /** Run `body(v)` for every node, optionally on the common ForkJoin pool —
    * scala-parallel-collections is not on the offline classpath, so driver
    * parallelism uses Java streams.
    */
  def forEachNode(numNodes: Int, parallel: Boolean)(body: Int => Unit): Unit = {
    val s = java.util.stream.IntStream.range(0, numNodes)
    (if (parallel) s.parallel() else s).forEach(v => body(v))
  }
}
