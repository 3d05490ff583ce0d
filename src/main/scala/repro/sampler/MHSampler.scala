package repro.sampler

import java.util.SplittableRandom

import repro.core.{RandomWalkModel, SamplerManager, WalkState}
import repro.graph.CSRGraph
import SamplerUtil.permitted

/** Initialization strategy for an M-H edge sampler's Markov chain
  * (paper §III-C): how to pick LAST_x the first time a state is touched.
  */
sealed trait InitStrategy extends Serializable { def name: String }

/** Draw the initial edge uniformly from the permitted neighbors — O(1),
  * but the chain may start in a low-probability region.
  */
case object RandomInit extends InitStrategy { val name = "Rand" }

/** Seed the chain at the (approximately) maximum-dynamic-weight edge: an
  * exact O(deg) scan for small degrees, otherwise the max over
  * `sampleSize` uniform probes (the paper's law-of-large-numbers
  * approximation). Better than random exactly when Thm. 3's condition
  * holds — true for skewed real-network distributions.
  */
final case class HighWeightInit(sampleSize: Int = 16) extends InitStrategy { val name = "Weight" }

/** Classic burn-in: random init followed by `iterations` discarded M-H
  * steps (the paper tunes 100). Accurate but expensive over #state chains.
  */
final case class BurnInInit(iterations: Int = 100) extends InitStrategy { val name = "Burn" }

/** The M-H based edge sampler (paper Alg. 1) — the core contribution.
  *
  * The conditional probability mass function is the uniform distribution
  * over N(v), so a step is: draw a uniform candidate edge, accept with
  * θ = min{1, w'(cand) / w'(LAST_x)}, emit LAST_x. O(1) time and one int
  * of memory per state, and the target distribution never needs
  * normalizing — which is what lets UniNet support arbitrary user models
  * (Challenge 2) at billion-edge scale (Challenge 1).
  */
final class MHSamplerFactory(val init: InitStrategy) extends SamplerFactory {
  override def name = s"mh(${init.name})"

  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler =
    new MHSampler(g, model, init)

  // LAST_x is allocated lazily inside each partition's SamplerManager;
  // the worst case (every state visited) is 4 bytes * #state.
  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long =
    4L * model.numStates(g)
}

final class MHSampler(
    g: CSRGraph,
    model: RandomWalkModel,
    init: InitStrategy,
) extends EdgeSampler(g, model) {
  private val mgr = new SamplerManager(g, v => model.bucketSize(g, v))

  def managerBytes: Long = mgr.memoryBytes
  override def localBytes: Long = managerBytes

  /** Uniform draw of a permitted (w' > 0) edge of N(v): up to 32 random
    * probes, then a linear scan fallback; -1 when no edge is permitted.
    */
  private def randomPermitted(s: WalkState, rng: SplittableRandom): Int = {
    val lo = g.offset(s.cur); val d = g.degree(s.cur)
    var probe = 0
    while (probe < 32) {
      val e = lo + rng.nextInt(d)
      if (permitted(g, model, s, e, model.calculateWeight(g, s, e))) return e
      probe += 1
    }
    // Scan from a random rotation so the fallback stays unbiased-ish.
    val rot = rng.nextInt(d)
    var j = 0
    while (j < d) {
      val e = lo + (j + rot) % d
      if (permitted(g, model, s, e, model.calculateWeight(g, s, e))) return e
      j += 1
    }
    -1
  }

  private def initialEdge(s: WalkState, d: Int, rng: SplittableRandom): Int = init match {
    case RandomInit => randomPermitted(s, rng)
    case HighWeightInit(k) =>
      // The exact max over N(v) when d <= k, else the max over k uniform probes.
      val lo = g.offset(s.cur)
      val exact = d <= k
      val n = if (exact) d else k
      var best = -1; var bestW = 0.0
      var j = 0
      while (j < n) {
        val e = if (exact) lo + j else lo + rng.nextInt(d)
        val w = model.calculateWeight(g, s, e)
        if (permitted(g, model, s, e, w) && w > bestW) { bestW = w; best = e }
        j += 1
      }
      if (best < 0 && !exact) randomPermitted(s, rng) else best
    case BurnInInit(iters) =>
      var last = randomPermitted(s, rng)
      var i = 0
      while (last >= 0 && i < iters) {
        val cand = transition(s, d, last, rng)
        if (cand >= 0) last = cand
        i += 1
      }
      last
  }

  /** Alg. 1's proposal and acceptance test from LAST_x = `last`: draw a
    * uniform candidate edge and accept it with θ = min{1, w'(cand)/w'(last)}.
    * Returns the accepted candidate, or -1 when it is rejected.
    */
  private def transition(s: WalkState, d: Int, last: Int, rng: SplittableRandom): Int = {
    val cand = g.offset(s.cur) + rng.nextInt(d)
    val wc = model.calculateWeight(g, s, cand)
    if (permitted(g, model, s, cand, wc)) {
      val wl = model.calculateWeight(g, s, last)
      if (!permitted(g, model, s, last, wl) || rng.nextDouble() * wl < wc) return cand
    }
    -1
  }

  /** Alg. 1: one M-H transition of state x's chain, returning LAST_x. */
  override protected def draw(s: WalkState, d: Int, rng: SplittableRandom): Int = {
    val bucket = mgr.bucket(s.cur)
    val a = model.affixture(g, s)
    var last = bucket(a)
    if (last < 0) {
      val t0 = initStart()
      last = initialEdge(s, d, rng)
      initDone(t0)
      if (last < 0) return -1 // no permitted edge: the walk is stuck
    }
    stats.trials += 1
    val cand = transition(s, d, last, rng)
    if (cand >= 0) { last = cand; stats.accepts += 1 }
    bucket(a) = last
    last
  }
}
