package repro.sampler

import java.util.SplittableRandom

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.CSRGraph

/** The static-weight proposal distribution shared by all rejection-style
  * samplers: one alias table per node over the *static* edge weights, plus
  * per-node weight sums. This is exactly the structure whose O(|E|)
  * footprint makes rejection/KnightKing OOM on Web-UK in the paper (§V-D)
  * while M-H (uniform proposal, no table) survives.
  */
final class StaticProposal(
    val tables: Array[AliasTable],
    val weightSums: Array[Double],
) extends Serializable {
  def bytes(g: CSRGraph): Long = AliasMethod.tableBytes(g.numDirectedEdges) + 8L * g.numNodes
}

object StaticProposal {
  def build(g: CSRGraph, parallel: Boolean): StaticProposal = {
    val tables = new Array[AliasTable](g.numNodes)
    val sums = new Array[Double](g.numNodes)
    SamplerUtil.forEachNode(g.numNodes, parallel) { v =>
      val d = g.degree(v); val lo = g.offset(v)
      val w = new Array[Double](d)
      var j = 0; var s = 0.0
      while (j < d) { w(j) = g.weight(lo + j).toDouble; s += w(j); j += 1 }
      tables(v) = AliasMethod.build(w)
      sums(v) = s
    }
    new StaticProposal(tables, sums)
  }
}

/** Rejection edge sampler [34] and its KnightKing variant [35]: draw a
  * candidate from the static proposal, accept with probability
  * bias/envelope. Plain rejection uses the envelope maxBias, so it needs
  * an expected O(maxBias / E[bias]) draws per sample — the parameter
  * sensitivity Table II measures. `knightKing = true` adds two of
  * KnightKing's algorithmic optimizations:
  *
  *  - **outlier folding**: a state's single deterministic outlier edge
  *    (node2vec's 1/p return edge when 1/p dominates) is pulled out of the
  *    rejection area and sampled exactly from a two-part mixture, so the
  *    envelope shrinks from max(1/p, 1, 1/q) to max(1, 1/q);
  *  - **pre-acceptance**: when every edge's bias is known to be at least
  *    `minBias`, a uniform draw below minBias/envelope accepts without
  *    computing the dynamic weight at all.
  *
  * Models without a deterministic outlier (edge2vec, fairwalk — their
  * outliers depend on the heterogeneous layout) get no folding benefit,
  * reproducing the paper's §V-D/§V-E observations. The distributed-engine
  * side of KnightKing is out of scope: the paper itself benchmarks it in
  * standalone mode.
  *
  * A trial cap falls back to the direct sampler so states whose
  * acceptance region is tiny (or empty, e.g. metapath mismatches) cannot
  * spin forever. The factory names ("rejection", "knightking") select the
  * paper-scale memory formula in [[MemoryModel]].
  */
final class RejectionSamplerFactory(knightKing: Boolean) extends SamplerFactory {
  override val name: String = if (knightKing) "knightking" else "rejection"
  private var proposal: StaticProposal = _

  override def prepare(g: CSRGraph, model: RandomWalkModel, parallel: Boolean): Unit =
    proposal = StaticProposal.build(g, parallel)

  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler = {
    require(proposal != null, s"$name: prepare() must run before create()")
    new RejectionSampler(g, model, proposal, knightKing)
  }

  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long =
    if (proposal == null) 0L else proposal.bytes(g)
}

final class RejectionSampler(
    g: CSRGraph,
    model: RandomWalkModel,
    proposal: StaticProposal,
    knightKing: Boolean,
) extends EdgeSampler(g, model) {
  private val foldedEnvelope = model.foldedMaxBias
  private val plainEnvelope = model.maxBias

  override protected def draw(s: WalkState, d: Int, rng: SplittableRandom): Int = {
    val v = s.cur
    val t = proposal.tables(v)
    if (t.size == 0) return -1
    val lo = g.offset(v)

    val outlier = if (knightKing) model.outlierEdge(g, s) else -1
    val envelope = if (outlier >= 0) foldedEnvelope else plainEnvelope
    // Mixture split: the outlier's weight above the folded envelope cap
    // forms its own always-accepted area. The split must be re-drawn on
    // every trial so rejections renormalize the whole mixture, keeping the
    // sampled distribution exact.
    var outlierProb = 0.0
    if (outlier >= 0) {
      val extra = model.calculateWeight(g, s, outlier) - envelope * g.weight(outlier)
      if (extra > 0) outlierProb = extra / (extra + envelope * proposal.weightSums(v))
    }

    val preThreshold = if (knightKing) model.minBias / envelope else 0.0
    val cap = RejectionSampler.MaxTrialsPerDeg * d + 16
    var trial = 0
    while (trial < cap) {
      trial += 1
      stats.trials += 1
      if (outlierProb > 0 && rng.nextDouble() < outlierProb) {
        stats.accepts += 1
        return outlier
      }
      val e = lo + t.draw(rng)
      val r = rng.nextDouble()
      if (r < preThreshold) {
        // pre-acceptance: bias >= minBias for every edge, skip the weight.
        stats.preAccepts += 1
        stats.accepts += 1
        return e
      }
      // In the folded area the outlier's contribution is capped at the
      // envelope (the surplus lives in the mixture's outlier area).
      val bias = math.min(model.bias(g, s, e), envelope)
      if (SamplerUtil.permitted(g, model, s, e, bias) && r * envelope < bias) {
        stats.accepts += 1
        return e
      }
    }
    stats.fallbacks += 1
    SamplerUtil.directDraw(g, model, s, rng)
  }
}

object RejectionSampler {
  /** Proposals per degree before a state falls back to a direct draw. */
  private val MaxTrialsPerDeg = 8
}
