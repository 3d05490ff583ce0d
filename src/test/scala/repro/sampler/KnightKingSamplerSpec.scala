package repro.sampler

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.model.{DeepWalk, Edge2Vec, Node2Vec}

/** KnightKing-style sampler's memory claim: outlier folding and
  * pre-acceptance keep no per-edge state of their own, so the sampler costs
  * exactly what plain rejection's static proposal costs. Its distribution
  * and acceptance tests live in [[RejectionSamplerSpec]], next to the plain
  * rejection sampler they share a class with.
  */
class KnightKingSamplerSpec extends AnyFunSuite {
  test("shares the static proposal's memory footprint") {
    val cases = Seq(
      TestGraphs.trianglePendant -> new DeepWalk,
      TestGraphs.trianglePendant -> new Node2Vec(0.25, 1.0),
      TestGraphs.typedGraph -> Edge2Vec(0.25, 0.25))
    for ((g, m) <- cases) {
      val kk = new RejectionSamplerFactory(knightKing = true)
      val plain = new RejectionSamplerFactory(knightKing = false)
      kk.prepare(g, m, parallel = true)
      plain.prepare(g, m, parallel = true)
      assert(kk.memoryBytes(g, m) == plain.memoryBytes(g, m), m.name)
      assert(kk.memoryBytes(g, m) == AliasMethod.tableBytes(g.numDirectedEdges) + 8L * g.numNodes, m.name)
    }
  }
}
