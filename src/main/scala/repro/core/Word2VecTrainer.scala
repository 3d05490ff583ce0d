package repro.core

import org.apache.spark.mllib.feature.{Word2Vec, Word2VecModel}
import org.apache.spark.rdd.RDD

/** The learning phase of the random-walk NRL pipeline: feed the walk
  * corpus into a skip-gram word2vec (Spark MLlib) and learn one embedding
  * per node. The paper's framework treats this phase as a black box
  * shared by all engine variants — its parallelization is the existing
  * MLlib implementation (the paper likewise reuses community techniques
  * [13]); `numPartitions = 1` emulates the single-threaded reference
  * implementations in baseline runs.
  */
object Word2VecTrainer {

  def train(
      walks: RDD[Array[Int]],
      dim: Int = 16,
      numPartitions: Int = 8,
      seed: Long = 42L,
  ): Word2VecModel = {
    val corpus = walks.map(w => w.map(_.toString).toSeq)
    new Word2Vec()
      .setVectorSize(dim)
      .setNumPartitions(numPartitions)
      .setNumIterations(1) // one epoch (DESIGN.md §3)
      .setWindowSize(5)
      .setMinCount(0)
      .setSeed(seed)
      .fit(corpus)
  }
}
