package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.model.DeepWalk
import repro.sampler.{HighWeightInit, MHSamplerFactory}

/** Learning phase: MLlib word2vec over the walk corpus. */
class Word2VecTrainerSpec extends SparkSpec {

  private lazy val g = TestGraphs.mediumGraph(n = 60, mult = 3)

  // generateWalks persists the corpus, so every test reads the same walks.
  private lazy val corpus = UniNet.generateWalks(
    spark, spark.sparkContext.broadcast(g), new DeepWalk,
    new MHSamplerFactory(HighWeightInit()), 5, 10, 4, 41L)._1

  test("embeddings have the configured dimensionality") {
    val model = Word2VecTrainer.train(corpus, dim = 12, numPartitions = 2)
    assert(model.getVectors.head._2.length == 12)
  }

  test("vocabulary covers every node that appears in the walks") {
    val model = Word2VecTrainer.train(corpus, dim = 8, numPartitions = 2)
    val seen = corpus.flatMap(_.map(_.toString)).distinct().collect().toSet
    assert(model.getVectors.keySet == seen)
    assert(seen.size == g.numNodes) // connected graph: every node walked
  }

  test("embeddings are finite numbers") {
    val model = Word2VecTrainer.train(corpus, dim = 8, numPartitions = 2)
    model.getVectors.values.foreach(v => v.foreach(x => assert(!x.isNaN && !x.isInfinite)))
  }

  test("single-partition training (baseline emulation) works") {
    val model = Word2VecTrainer.train(corpus, dim = 8, numPartitions = 1)
    assert(model.getVectors.nonEmpty)
  }

  test("training is deterministic under a fixed seed and partitioning") {
    val a = Word2VecTrainer.train(corpus, dim = 8, numPartitions = 1, seed = 7L)
    val b = Word2VecTrainer.train(corpus, dim = 8, numPartitions = 1, seed = 7L)
    assert(a.getVectors.view.mapValues(_.toSeq).toMap ==
           b.getVectors.view.mapValues(_.toSeq).toMap)
  }
}
