package repro.model

import repro.core.WalkState
import repro.graph.CSRGraph

/** Node2vec (Eq. 2): second-order walk biased by hyper-parameters (p, q).
  * The dynamic weight of a candidate edge (v, u) under state (s, v) is
  * alpha_u * w_vu, with alpha as defined in [[SecondOrderWalk]].
  */
final class Node2Vec(p: Double, q: Double) extends SecondOrderWalk("node2vec", p, q) {

  override def calculateWeight(g: CSRGraph, s: WalkState, e: Int): Double =
    alpha(g, s, e) * g.weight(e)

  override val maxBias: Double = maxAlpha
  override val minBias: Double = minAlpha

  /** Outlier folding: when 1/p alone exceeds the rest of the bias range,
    * the single return edge (v, s) is the deterministic outlier KnightKing
    * folds out of the envelope.
    */
  override def outlierEdge(g: CSRGraph, s: WalkState): Int =
    if (s.prev < 0 || invP <= math.max(1.0, invQ)) -1
    else g.offset(s.cur) + affixture(g, s)

  override val foldedMaxBias: Double = math.max(1.0, invQ)
}
