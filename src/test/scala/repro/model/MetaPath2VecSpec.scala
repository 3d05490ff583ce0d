package repro.model

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.{UniNet, WalkState}

/** Metapath2vec model semantics (Eq. 4): type masking and path cycling. */
class MetaPath2VecSpec extends AnyFunSuite {
  private val g = TestGraphs.typedGraph // types of 0..5: 0,1,2,0,1,2
  private val m = new MetaPath2Vec(Array(0, 1, 2))

  test("edges to the target type keep their static weight") {
    // node 0 at path position 0 -> target type 1; neighbors of type 1: 1, 4
    val s = WalkState(-1, 0, 0)
    val e1 = g.offset(0) + g.neighborIndexOf(0, 1)
    assert(m.calculateWeight(g, s, e1) == g.weight(e1).toDouble)
  }

  test("edges to other types have weight zero") {
    val s = WalkState(-1, 0, 0)
    val e3 = g.offset(0) + g.neighborIndexOf(0, 3) // type 0 != target 1
    val e2 = g.offset(0) + g.neighborIndexOf(0, 2) // type 2 != target 1
    assert(m.calculateWeight(g, s, e3) == 0.0)
    assert(m.calculateWeight(g, s, e2) == 0.0)
  }

  test("target type cycles through the metapath") {
    assert(m.targetType(0) == 1)
    assert(m.targetType(1) == 2)
    assert(m.targetType(2) == 0) // wraps
  }

  test("updateState advances the metapath position modulo its length") {
    val e1 = g.offset(0) + g.neighborIndexOf(0, 1)
    assert(m.updateState(g, WalkState(-1, 0, 0), e1) == WalkState(0, 1, 1))
    val s2 = WalkState(0, 2, 2)
    val back = g.offset(2) + g.neighborIndexOf(2, 0)
    assert(m.updateState(g, s2, back).aux == 0)
  }

  test("initialState aligns the walker with its node's type on the path") {
    assert(m.initialState(g, 0).aux == 0) // type 0 at position 0
    assert(m.initialState(g, 1).aux == 1) // type 1 at position 1
    assert(m.initialState(g, 5).aux == 2) // type 2 at position 2
  }

  test("a start type missing from the metapath is immediately stuck") {
    val m2 = new MetaPath2Vec(Array(0, 1))
    val s = m2.initialState(g, 2) // type 2 not on path
    assert(s.aux == -1)
    for (j <- 0 until g.degree(2)) assert(m2.calculateWeight(g, s, g.offset(2) + j) == 0.0)
  }

  test("an off-path start emits a one-node walk under every sampler") {
    val m2 = new MetaPath2Vec(Array(0, 1))
    for ((name, factory) <- TestGraphs.samplerFactories) {
      val f = factory()
      f.prepare(g, m2, parallel = false)
      val walk = UniNet.runWalk(g, m2, f.create(g, m2), 2, 5, new SplittableRandom(1))
      assert(walk.toSeq == Seq(2), name)
    }
  }

  test("number of states is |V| * |metapath|") {
    assert(m.numStates(g) == g.numNodes.toLong * 3)
    assert(!m.isSecondOrder)
  }

  test("2D layout: affixture is the metapath position") {
    assert(m.bucketSize(g, 0) == 4)
    assert(m.affixture(g, WalkState(-1, 0, 2)) == 2)
    assert(m.affixture(g, WalkState(-1, 0, -1)) == 3) // off-path start: own slot
    assert(m.stateFor(g, 4, 1) == WalkState(-1, 4, 1))
    assert(m.stateFor(g, 4, 3) == WalkState(-1, 4, -1))
  }

  test("bias bounds: masked model has no positive floor") {
    assert(m.maxBias == 1.0)
    assert(m.minBias == 0.0)
  }
}
