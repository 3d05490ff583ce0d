package repro.sampler

import java.util.SplittableRandom
import java.util.concurrent.atomic.AtomicLong

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.CSRGraph

/** Alias edge sampler [34]: O(1) draws from one precomputed table per
  * *state*. For first-order models that is one table per node (O(|E|)
  * entries total); for second-order models it is one table per directed
  * edge over the destination's neighborhood — the O(d * #state) memory
  * blow-up that makes the reference node2vec implementation (and
  * UniNet(Orig)) explode on large networks (Challenge 1).
  *
  * Like that reference implementation, every state table is built eagerly
  * in `prepare` (this *is* the huge Ti of the node2vec baselines in
  * Table VI). A lazy per-state alias cache is the memory-aware sampler
  * with an unbounded budget.
  */
final class AliasSamplerFactory extends SamplerFactory {
  override val name = "alias"

  // Shared immutable tables, indexed [node][affixture].
  private var tables: Array[Array[AliasTable]] = _
  private val builtBytes = new AtomicLong(0L)

  override def prepare(g: CSRGraph, model: RandomWalkModel, parallel: Boolean): Unit = {
    tables = new Array[Array[AliasTable]](g.numNodes)
    builtBytes.set(0L)
    SamplerUtil.forEachNode(g.numNodes, parallel) { v =>
      val bs = model.bucketSize(g, v)
      val row = new Array[AliasTable](bs)
      var a = 0
      while (a < bs) {
        row(a) = AliasMethod.build(
          SamplerUtil.dynamicWeights(g, model, model.stateFor(g, v, a)))
        a += 1
      }
      tables(v) = row
      builtBytes.addAndGet(AliasMethod.tableBytes(g.degree(v)) * bs)
    }
  }

  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler = {
    require(tables != null, s"$name: prepare() must run before create()")
    new AliasSampler(g, model, tables)
  }

  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long = builtBytes.get()
}

final class AliasSampler(
    g: CSRGraph,
    model: RandomWalkModel,
    tables: Array[Array[AliasTable]],
) extends EdgeSampler(g, model) {
  override protected def draw(s: WalkState, d: Int, rng: SplittableRandom): Int = {
    stats.trials += 1
    val t = tables(s.cur)(model.affixture(g, s))
    if (t.size == 0) -1 // every dynamic weight is 0 under this state
    else g.offset(s.cur) + t.draw(rng)
  }
}
