package repro.model

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.CSRGraph

/** The second-order bookkeeping node2vec and its extensions (edge2vec,
  * fairwalk) share: the state is the previous edge (s, v), the walker is
  * biased by node2vec's return/in-out factor
  *   alpha = 1/p  if u == s           (d(u,s) = 0, return),
  *   alpha = 1    if (s, u) is an edge (d(u,s) = 1, triangle),
  *   alpha = 1/q  otherwise            (d(u,s) = 2, explore),
  * and states map onto the paper's 2D layout (Fig. 4). A subclass only
  * supplies the factor that multiplies alpha * w and its bias bounds.
  *
  * The triangle test is the O(log deg) binary search the paper's
  * complexity analysis refers to (§III-A). The first step of a walk has
  * no previous edge; alpha is then 1 for every candidate (plain deepwalk
  * step), matching the reference implementation.
  */
abstract class SecondOrderWalk(kind: String, val p: Double, val q: Double)
    extends RandomWalkModel {
  require(p > 0 && q > 0, s"$kind requires p > 0 and q > 0")
  override val name = s"$kind(p=$p,q=$q)"
  override val isSecondOrder = true

  protected val invP: Double = 1.0 / p
  protected val invQ: Double = 1.0 / q
  /** Range of alpha over all states and edges. */
  protected val maxAlpha: Double = math.max(1.0, math.max(invP, invQ))
  protected val minAlpha: Double = math.min(1.0, math.min(invP, invQ))

  /** alpha_u for state `s` and candidate edge `e`. */
  def alpha(g: CSRGraph, s: WalkState, e: Int): Double = {
    if (s.prev < 0) 1.0
    else {
      val u = g.dst(e)
      if (u == s.prev) invP
      else if (g.hasEdge(s.prev, u)) 1.0
      else invQ
    }
  }

  override def updateState(g: CSRGraph, s: WalkState, e: Int): WalkState =
    WalkState(s.cur, g.dst(e), 0)

  override def initialState(g: CSRGraph, start: Int): WalkState = WalkState(-1, start, 0)

  /** 2D layout (Fig. 4): one sampler per (v, index-of-s-in-N(v)) plus one
    * extra slot for the first step's prev-less state.
    */
  override def bucketSize(g: CSRGraph, v: Int): Int = g.degree(v) + 1

  /** The slot of s.prev in N(s.cur). The walker reached cur over the edge
    * prev -> cur, so on a symmetric graph the reverse edge exists; on an
    * asymmetric one two distinct states would share a slot (and an M-H
    * chain), so a missing reverse edge is an input error.
    */
  override def affixture(g: CSRGraph, s: WalkState): Int =
    if (s.prev < 0) g.degree(s.cur)
    else {
      val i = g.neighborIndexOf(s.cur, s.prev)
      if (i < 0) throw new IllegalArgumentException(
        s"$name needs symmetric adjacency: edge ${s.prev}->${s.cur} has no reverse edge")
      i
    }

  override def stateFor(g: CSRGraph, v: Int, affix: Int): WalkState =
    if (affix >= g.degree(v)) WalkState(-1, v, 0)
    else WalkState(g.dst(g.offset(v) + affix), v, 0)
}
