package perfbench

import repro.core.{RandomWalkModel, RunConfig}
import repro.graph.{DatasetConfig, GraphGen}
import repro.model.{DeepWalk, Node2Vec}
import repro.sampler.{HighWeightInit, MHSamplerFactory, SamplerFactory}

/** One benchmark workload: a generated "-lite" dataset, a walk model, a
  * sampler and the walk/learn configuration handed to `Pipeline.run`.
  */
final case class Workload(
    name: String,
    dataset: String,
    makeModel: () => RandomWalkModel,
    makeFactory: () => SamplerFactory,
    numWalks: Int,
    walkLen: Int,
    learn: Boolean,
    why: String,
) {

  /** The dataset with its generator seed replaced by the workload seed. */
  def datasetConfig(seed: Long): DatasetConfig = GraphGen.datasets(dataset).copy(seed = seed)

  /** Walk and word2vec partitions are pinned (not derived from the machine)
    * so that every count repeats exactly for a given seed.
    */
  def runConfig(seed: Long): RunConfig = RunConfig(
    numWalks = numWalks, walkLen = walkLen, partitions = Workloads.Partitions, seed = seed,
    learn = learn, dim = Workloads.Dim, learnPartitions = Workloads.Partitions,
    parallelPrepare = true)
}

object Workloads {
  val Partitions = 4
  val Dim = 16

  private def mhWeight(): SamplerFactory = new MHSamplerFactory(HighWeightInit())
  private def node2vec(): RandomWalkModel = new Node2Vec(p = 0.25, q = 4.0)

  val all: Seq[Workload] = Seq(
    Workload("deepwalk-embed", "Reddit", () => new DeepWalk, mhWeight _,
      numWalks = 1, walkLen = 10, learn = true,
      why = "graph to embeddings; word2vec does almost all the work, the first-order " +
        "M-H sampler reuses its chains, so sampler changes should not move it"),
    Workload("node2vec-steady", "YouTube", node2vec _, mhWeight _,
      numWalks = 10, walkLen = 80, learn = false,
      why = "walk only; each M-H state is revisited many times, so steady-state " +
        "steps (candidate and LAST_x weights, hasEdge searches) dominate"),
    Workload("node2vec-cold", "Twitter", node2vec _, mhWeight _,
      numWalks = 2, walkLen = 20, learn = false,
      why = "walk only on a large CSR; most steps touch a fresh chain, so chain " +
        "init, LAST_x allocation and cache misses dominate"),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
