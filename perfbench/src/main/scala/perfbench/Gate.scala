package perfbench

import scala.collection.mutable

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.core.{RandomWalkModel, RunResult, UniNet, Word2VecTrainer}
import repro.graph.CSRGraph

/** Outcome of the correctness gate on one regenerated walk corpus. */
final case class GateResult(
    walks: Long,
    tokens: Long,
    steps: Long,
    badWalks: Long,
    problems: Seq[String],
    partitionHashes: Array[Long],
    transitionTv: Double,
    tvStates: Int,
) {
  def passed: Boolean = problems.isEmpty
}

/** Dense index of M-H states: node v's bucket occupies slots
  * `offsets(v) until offsets(v + 1)`, one per affixture.
  */
final class StateLayout(val offsets: Array[Int]) extends Serializable {
  def numStates: Int = offsets(offsets.length - 1)
  def index(v: Int, affix: Int): Int = offsets(v) + affix
  def nodeOf(state: Int): Int = {
    val i = java.util.Arrays.binarySearch(offsets, state)
    if (i >= 0) { var v = i; while (offsets(v + 1) == state) v += 1; v } else -i - 2
  }
}

object StateLayout {
  def apply(g: CSRGraph, model: RandomWalkModel): StateLayout = {
    val off = new Array[Long](g.numNodes + 1)
    var v = 0
    while (v < g.numNodes) { off(v + 1) = off(v) + model.bucketSize(g, v); v += 1 }
    require(off(g.numNodes) <= Int.MaxValue, "too many states for a dense state index")
    new StateLayout(off.map(_.toInt))
  }
}

/** Per-partition result of checking walks. */
final class PartitionCheck(numStates: Int, numNodes: Int) extends Serializable {
  var walks = 0L
  var tokens = 0L
  var bad = 0L
  var firstProblem: String = null
  var hash: Long = CorpusHash.Seed
  val visits = new Array[Int](numStates)
  val seen = new Array[Boolean](numNodes)

  def merge(o: PartitionCheck): PartitionCheck = {
    walks += o.walks; tokens += o.tokens; bad += o.bad
    if (firstProblem == null) firstProblem = o.firstProblem
    var i = 0
    while (i < visits.length) { visits(i) += o.visits(i); i += 1 }
    i = 0
    while (i < seen.length) { seen(i) ||= o.seen(i); i += 1 }
    this
  }
}

/** The correctness gate, run on every benchmark invocation: regenerate the
  * corpus with `UniNet.generateWalks` (same model, factory, seed and
  * partitions as the timed runs), check every walk against the graph, check
  * the work counters against the corpus and the timed `RunResult`, and
  * measure sample quality as the total-variation distance between each
  * busy state's empirical next-edge distribution and its exact target.
  */
object Gate {

  /** The most-visited states whose transition histograms are compared: at
    * most TvStates, and no more than TvEntries histogram entries (summed
    * degrees) in all. Fewer states give a mean that moves with the graph
    * drawn for each seed.
    */
  val TvStates = 20000
  val TvEntries = 1000000L

  /** Checks one walk with global walker index `idx`; returns null when the
    * walk is valid, else a description. Counts state visits into `pc`.
    */
  def checkWalk(g: CSRGraph, model: RandomWalkModel, layout: StateLayout, walkLen: Int,
                walk: Array[Int], idx: Long, pc: PartitionCheck): String = {
    val n = g.numNodes
    if (walk.length < 1 || walk.length > walkLen + 1) return s"walk $idx has ${walk.length} nodes"
    if (walk(0) != (idx % n).toInt) return s"walk $idx starts at ${walk(0)}, not ${idx % n}"
    var s = model.initialState(g, walk(0))
    var j = 0
    while (j < walk.length - 1) {
      val cur = walk(j); val nxt = walk(j + 1)
      if (nxt < 0 || nxt >= n) return s"walk $idx visits node $nxt out of range"
      val i = g.neighborIndexOf(cur, nxt)
      if (i < 0) return s"walk $idx steps $cur -> $nxt, which is not an edge"
      val e = g.offset(cur) + i
      if (!(model.calculateWeight(g, s, e) > 0)) return s"walk $idx takes forbidden edge $cur -> $nxt"
      pc.visits(layout.index(cur, model.affixture(g, s))) += 1
      pc.seen(cur) = true
      s = model.updateState(g, s, e)
      j += 1
    }
    pc.seen(s.cur) = true
    if (walk.length < walkLen + 1) {
      // A walk may only end early in a state that admits no edge.
      val lo = g.offset(s.cur)
      var k = 0
      while (k < g.degree(s.cur)) {
        if (model.calculateWeight(g, s, lo + k) > 0) return s"walk $idx stops early at ${s.cur}"
        k += 1
      }
    }
    null
  }

  /** Exact normalized target of state (v, affix): w' over N(v). */
  def exactTarget(g: CSRGraph, model: RandomWalkModel, v: Int, affix: Int): Array[Double] = {
    val s = model.stateFor(g, v, affix)
    val lo = g.offset(v)
    val w = Array.tabulate(g.degree(v))(j => model.calculateWeight(g, s, lo + j))
    val sum = w.sum
    w.map(_ / sum)
  }

  /** Total-variation distance between an edge histogram and a target. */
  def tv(hist: Array[Int], target: Array[Double]): Double = {
    require(hist.length == target.length, "histogram and target differ in support")
    val n = hist.map(_.toLong).sum.toDouble
    var d = 0.0
    var j = 0
    while (j < hist.length) { d += math.abs(hist(j) / n - target(j)); j += 1 }
    d / 2
  }

  /** Visit-weighted mean TV over states, from (visits, tv) pairs. */
  def weightedTv(perState: Seq[(Long, Double)]): Double = {
    val w = perState.map(_._1).sum.toDouble
    perState.map { case (c, d) => c * d }.sum / w
  }

  /** Indices of the `k` largest positive entries of `counts`, by count
    * descending (ties broken by index, so the choice repeats exactly).
    */
  def topStates(counts: Array[Int], k: Int): Array[Int] = {
    val ord = Ordering.by[Int, (Int, Int)](i => (counts(i), -i))
    val heap = mutable.PriorityQueue.empty[Int](ord.reverse)
    var i = 0
    while (i < counts.length) {
      if (counts(i) > 0) {
        if (heap.size < k) heap.enqueue(i)
        else if (ord.gt(i, heap.head)) { heap.dequeue(); heap.enqueue(i) }
      }
      i += 1
    }
    heap.dequeueAll.reverse.toArray
  }

  def run(spark: SparkSession, bcGraph: Broadcast[CSRGraph], w: Workload, seed: Long,
          timed: Seq[RunResult]): GateResult = {
    val g = bcGraph.value
    val rc = w.runConfig(seed)
    val model = w.makeModel()
    val factory = w.makeFactory()
    factory.prepare(g, model, rc.parallelPrepare)
    val (walks, acc) = UniNet.generateWalks(spark, bcGraph, model, factory, rc.numWalks,
                                            rc.walkLen, rc.partitions, rc.seed)
    walks.persist(StorageLevel.MEMORY_AND_DISK)
    try {
      val walkCount = walks.count()
      val layout = StateLayout(g, model)
      val n = g.numNodes
      val walkLen = rc.walkLen
      val perPartition = walks.zipWithIndex().mapPartitions { it =>
        val gg = bcGraph.value
        val pc = new PartitionCheck(layout.numStates, n)
        it.foreach { case (walk, idx) =>
          pc.walks += 1; pc.tokens += walk.length
          pc.hash = CorpusHash.mixWalk(pc.hash, walk)
          val p = checkWalk(gg, model, layout, walkLen, walk, idx, pc)
          if (p != null) { pc.bad += 1; if (pc.firstProblem == null) pc.firstProblem = p }
        }
        Iterator(pc)
      }.collect()
      val hashes = perPartition.map(_.hash)
      val all = perPartition.reduce(_ merge _)

      // Problems with the corpus as a whole fail every walk.
      val problems = mutable.ArrayBuffer[String]()
      val expectedWalks = n.toLong * rc.numWalks
      if (walkCount != expectedWalks || all.walks != expectedWalks)
        problems += s"walk count $walkCount (checked ${all.walks}), expected $expectedWalks"
      val steps = acc.steps.value
      if (steps != all.tokens - all.walks)
        problems += s"steps counter $steps != tokens ${all.tokens} - walks ${all.walks}"
      timed.zipWithIndex.foreach { case (r, i) =>
        if (r.walkCount != all.walks || r.tokenCount != all.tokens || r.steps != steps)
          problems += s"timed run $i reported walks ${r.walkCount}, tokens ${r.tokenCount}, " +
            s"steps ${r.steps}; the verified corpus has ${all.walks}, ${all.tokens}, $steps"
      }

      // Sample quality on the most-visited states.
      val ranked = topStates(all.visits, TvStates)
      val entries = ranked.map(st => g.degree(layout.nodeOf(st)).toLong).scanLeft(0L)(_ + _).tail
      val top = ranked.take(entries.count(_ <= TvEntries))
      val topNodes = top.map(layout.nodeOf)
      val slotOfSorted = top.indices.sortBy(top(_)).toArray
      val sortedTop = slotOfSorted.map(top)
      val hists = walks.mapPartitions { it =>
        val gg = bcGraph.value
        val h = topNodes.map(v => new Array[Int](gg.degree(v)))
        it.foreach { walk =>
          var s = model.initialState(gg, walk(0))
          var j = 0
          while (j < walk.length - 1) {
            val cur = walk(j)
            val i = gg.neighborIndexOf(cur, walk(j + 1))
            val r = java.util.Arrays.binarySearch(sortedTop, layout.index(cur, model.affixture(gg, s)))
            if (r >= 0) h(slotOfSorted(r))(i) += 1
            s = model.updateState(gg, s, gg.offset(cur) + i)
            j += 1
          }
        }
        Iterator(h)
      }.reduce { (a, b) =>
        a.zip(b).foreach { case (x, y) => var j = 0; while (j < x.length) { x(j) += y(j); j += 1 } }
        a
      }
      val perState = top.indices.map { k =>
        val v = topNodes(k)
        (hists(k).map(_.toLong).sum, tv(hists(k), exactTarget(g, model, v, top(k) - layout.offsets(v))))
      }

      if (rc.learn) {
        val vectors = Word2VecTrainer.train(walks, dim = rc.dim,
          numPartitions = rc.learnPartitions, seed = rc.seed).getVectors
        val visited = (0 until n).filter(all.seen(_)).map(_.toString).toSet
        if (vectors.keySet != visited)
          problems += s"word2vec vocabulary has ${vectors.size} words, corpus visits ${visited.size} nodes"
        vectors.find(_._2.length != rc.dim).foreach { case (k, v) =>
          problems += s"vector of $k has dim ${v.length}, expected ${rc.dim}"
        }
      }

      val bad = if (problems.nonEmpty) expectedWalks else all.bad
      if (all.firstProblem != null) problems.prepend(s"${all.bad} bad walks, first: ${all.firstProblem}")
      GateResult(all.walks, all.tokens, steps, bad, problems.toSeq, hashes,
                 weightedTv(perState), top.length)
    } finally walks.unpersist(blocking = true)
  }
}
