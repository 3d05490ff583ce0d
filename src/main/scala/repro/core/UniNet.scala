package repro.core

import java.util.SplittableRandom

import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import org.apache.spark.util.LongAccumulator

import repro.graph.CSRGraph
import repro.sampler.{EdgeSampler, SamplerFactory}

/** Driver-side handle of one walk job: the factory broadcast its tasks read
  * (the caller destroys it when done with the corpus), and the counters each
  * task flushes its [[repro.sampler.LocalStats]] into when it completes.
  */
final class WalkJob(@transient spark: SparkSession, factory: SamplerFactory) extends Serializable {
  // Note: only the broadcast and the accumulators may become fields — a
  // captured SparkContext would make the walker closure unserializable.
  val bcFactory: Broadcast[SamplerFactory] = spark.sparkContext.broadcast(factory)
  val steps: LongAccumulator = spark.sparkContext.longAccumulator("steps")
  val trials: LongAccumulator = spark.sparkContext.longAccumulator("trials")
  val accepts: LongAccumulator = spark.sparkContext.longAccumulator("accepts")
  val preAccepts: LongAccumulator = spark.sparkContext.longAccumulator("preAccepts")
  val fallbacks: LongAccumulator = spark.sparkContext.longAccumulator("fallbacks")
  val initNanos: LongAccumulator = spark.sparkContext.longAccumulator("initNanos")
  val initCount: LongAccumulator = spark.sparkContext.longAccumulator("initCount")
  val localBytes: LongAccumulator = spark.sparkContext.longAccumulator("localBytes")

  private[core] def flush(sampler: EdgeSampler): Unit = {
    val st = sampler.stats
    steps.add(st.steps); trials.add(st.trials)
    accepts.add(st.accepts); preAccepts.add(st.preAccepts)
    fallbacks.add(st.fallbacks)
    initNanos.add(st.initNanos); initCount.add(st.initCount)
    localBytes.add(sampler.localBytes)
  }
}

/** The UniNet walk engine (paper Alg. 2) on Spark.
  *
  * The CSR network is broadcast once; walkers are the indices
  * [0, numNodes * numWalks), split into `numPartitions` contiguous slices
  * (walker i starts at node i % numNodes).
  * Each partition instantiates one edge sampler from the (broadcast,
  * already-prepared) factory — sampler state such as LAST_x or lazy alias
  * caches is partition-local, mirroring the paper's per-thread walkers:
  * the per-state Markov chains of different partitions are independent,
  * which preserves the M-H convergence argument.
  */
object UniNet {

  /** One walk from `start`: the node sequence, length <= walkLen + 1
    * (walks terminate early when the state admits no edge).
    */
  def runWalk(g: CSRGraph, model: RandomWalkModel, sampler: EdgeSampler,
              start: Int, walkLen: Int, rng: SplittableRandom): Array[Int] = {
    val buf = new Array[Int](walkLen + 1)
    buf(0) = start
    var n = 1
    var s = model.initialState(g, start)
    var step = 0
    var stuck = false
    while (step < walkLen && !stuck) {
      val e = sampler.sample(s, rng)
      if (e < 0) stuck = true
      else {
        buf(n) = g.dst(e); n += 1
        s = model.updateState(g, s, e)
      }
      step += 1
    }
    if (n == buf.length) buf else java.util.Arrays.copyOf(buf, n)
  }

  /** Generate `numWalks` walks of length `walkLen` per node (Alg. 2's
    * K and L). The `prepare`d factory is broadcast here. The corpus is
    * persisted (MEMORY_AND_DISK) where it is made, so later actions read
    * the cache and the counters count each walk exactly once.
    */
  def generateWalks(
      spark: SparkSession,
      bcGraph: Broadcast[CSRGraph],
      model: RandomWalkModel,
      factory: SamplerFactory,
      numWalks: Int,
      walkLen: Int,
      numPartitions: Int,
      seed: Long,
  ): (RDD[Array[Int]], WalkJob) = {
    val job = new WalkJob(spark, factory)
    val n = bcGraph.value.numNodes
    val total = n.toLong * numWalks
    // Partition pid runs walkers [pid * total / P, (pid + 1) * total / P):
    // sc.range's slices, without the milliseconds sc.range takes to build.
    val walks = spark.sparkContext
      .parallelize(0 until numPartitions, numPartitions)
      .mapPartitionsWithIndex { (pid, _) =>
        val g = bcGraph.value
        val sampler = job.bcFactory.value.create(g, model)
        // Flushed exactly once, when this task completes.
        TaskContext.get().addTaskCompletionListener[Unit](_ => job.flush(sampler))
        val rng = new SplittableRandom(seed * 1000003L + pid)
        (pid * total / numPartitions until (pid + 1) * total / numPartitions).iterator
          .map(i => runWalk(g, model, sampler, (i % n).toInt, walkLen, rng))
      }
      .persist(StorageLevel.MEMORY_AND_DISK)
    (walks, job)
  }
}
