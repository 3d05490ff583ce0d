package repro.core

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.graph.{CSRGraph, GraphGen}
import repro.model._
import repro.sampler._

/** Golden fixed-seed walk corpora, without Spark: for every model x
  * sampler pair, the walks `UniNet.runWalk` emits from every node of a
  * `TestGraphs` graph hash to one committed 64-bit value. A refactor that
  * keeps each sampler's RNG consumption must keep every hash; a hash that
  * changes must be explained by a changed draw order.
  */
class CorpusGoldenSpec extends AnyFunSuite {
  private val homogeneous = TestGraphs.mediumGraph()
  private val typed = GraphGen.withGeneratedTypes(homogeneous)

  private val models: Seq[(String, CSRGraph, () => RandomWalkModel)] = Seq(
    ("deepwalk", homogeneous, () => new DeepWalk),
    ("node2vec", homogeneous, () => new Node2Vec(0.5, 2.0)),
    ("metapath2vec", typed, () => new MetaPath2Vec(Array(0, 1, 2))),
    ("edge2vec", typed, () => Edge2Vec(0.5, 2.0)),
    ("fairwalk", typed, () => new FairWalk(0.5, 2.0)),
  )

  private val samplers: Seq[(String, () => SamplerFactory)] = Seq(
    "direct" -> (() => DirectSamplerFactory),
    "alias" -> (() => new AliasSamplerFactory),
    "rejection" -> (() => new RejectionSamplerFactory(knightKing = false)),
    "knightking" -> (() => new RejectionSamplerFactory(knightKing = true)),
    "memory-aware(0)" -> (() => new MemoryAwareSamplerFactory(0L)),
    "memory-aware(max)" -> (() => new MemoryAwareSamplerFactory(Long.MaxValue)),
    "mh(Rand)" -> (() => new MHSamplerFactory(RandomInit)),
    "mh(Weight)" -> (() => new MHSamplerFactory(HighWeightInit())),
    "mh(Burn)" -> (() => new MHSamplerFactory(BurnInInit())),
  )

  /** Committed hashes, one row per model in `samplers` order. */
  private val Expected: Map[(String, String), Long] = Map(
    "deepwalk" -> Seq(
      0x6CED5F8454CEAC7EL, 0xF431BB23D12BF5D3L, 0x5B9F548D1B18574EL,
      0x5B9F548D1B18574EL, 0x6CED5F8454CEAC7EL, 0xF431BB23D12BF5D3L,
      0x3C0DFB011D427434L, 0x688FF3EF9AB9E8E6L, 0x34D9AA538F8928A9L),
    "node2vec" -> Seq(
      0x6FB9C685F172F93CL, 0xBFB94D39AAB711E0L, 0xE3A9BA527D300C48L,
      0xD9D735321EFCE10EL, 0x6FB9C685F172F93CL, 0xBFB94D39AAB711E0L,
      0x17D4072F51182140L, 0x9649B525D3F309A6L, 0x50C554F4968D4E18L),
    // Rejection draws its acceptance uniform before the bias test, so on
    // metapath2vec's zero-bias edges it consumes the same RNG stream as
    // KnightKing (no outlier, no bias floor) and emits the same corpus.
    "metapath2vec" -> Seq(
      0x14EBDCE43547BCFEL, 0x3436F8B1DB27A5C0L, 0x5CE48587BE37BD2AL,
      0x5CE48587BE37BD2AL, 0x14EBDCE43547BCFEL, 0x3436F8B1DB27A5C0L,
      0x99C935B2AF008398L, 0x66F01CAFE7B9267EL, 0x70381138F05C83F4L),
    "edge2vec" -> Seq(
      0x868125F3CA68B83CL, 0xD1B4C533459B4DDAL, 0x7512C72896C307C9L,
      0x7512C72896C307C9L, 0x868125F3CA68B83CL, 0xD1B4C533459B4DDAL,
      0x0FE38A6DF6858142L, 0x5D40DA77B4DC923AL, 0x300D40B7E3CF908BL),
    "fairwalk" -> Seq(
      0x9D0670368669229DL, 0xA39805A2C9099657L, 0xEBD2E25DC5861776L,
      0xEBD2E25DC5861776L, 0x9D0670368669229DL, 0xA39805A2C9099657L,
      0xFC43CFECFD74DE88L, 0xB6B0F29832F96249L, 0x6DDE2D4B13B4B48FL),
  ).flatMap { case (m, hs) => samplers.map(_._1).zip(hs).map { case (s, h) => (m, s) -> h } }

  /** Two walks of length 12 from every node, in node order, one sampler
    * and one RNG for the whole corpus (one partition's worth of work).
    */
  private def corpusHash(g: CSRGraph, model: RandomWalkModel, factory: SamplerFactory): Long = {
    factory.prepare(g, model, parallel = false)
    val sampler = factory.create(g, model)
    val rng = new SplittableRandom(20211L)
    var h = 0xCBF29CE484222325L
    for (_ <- 0 until 2; v <- 0 until g.numNodes) {
      val walk = UniNet.runWalk(g, model, sampler, v, 12, rng)
      h = (h ^ walk.length) * 0x100000001B3L
      walk.foreach { u => h = (h ^ u) * 0x100000001B3L; h ^= h >>> 31 }
    }
    h
  }

  for ((mName, g, model) <- models; (sName, factory) <- samplers) {
    test(s"$mName x $sName corpus hash is unchanged") {
      val h = corpusHash(g, model(), factory())
      assert(Expected.get((mName, sName)).contains(h), f"actual 0x$h%016XL")
    }
  }
}
