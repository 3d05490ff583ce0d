package repro.core

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.graph.{CSRGraph, GraphGen}
import repro.model._
import repro.sampler._

/** Golden fixed-seed walk corpora, without Spark: for every model x
  * sampler pair, the walks `UniNet.runWalk` emits from every node of a
  * `TestGraphs` graph hash to one committed 64-bit value, and the sampler's
  * work counters after that corpus match a committed row. A refactor that
  * keeps each sampler's RNG consumption must keep every hash; a hash that
  * changes must be explained by a changed draw order. The counter rows
  * catch a counter bumped in the wrong place, which no hash sees.
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

  private val samplers = TestGraphs.samplerFactories

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
    * Returns the corpus hash and the sampler that walked it.
    */
  private def walkCorpus(g: CSRGraph, model: RandomWalkModel,
                         factory: SamplerFactory): (Long, EdgeSampler) = {
    factory.prepare(g, model, parallel = false)
    val sampler = factory.create(g, model)
    val rng = new SplittableRandom(20211L)
    var h = 0xCBF29CE484222325L
    for (_ <- 0 until 2; v <- 0 until g.numNodes) {
      val walk = UniNet.runWalk(g, model, sampler, v, 12, rng)
      h = (h ^ walk.length) * 0x100000001B3L
      walk.foreach { u => h = (h ^ u) * 0x100000001B3L; h ^= h >>> 31 }
    }
    (h, sampler)
  }

  /** The work counters a corpus leaves behind: (steps, trials, accepts,
    * preAccepts, fallbacks, initCount, localBytes). `initNanos` is a clock
    * reading, so it is not pinned.
    */
  private def counters(sampler: EdgeSampler): Seq[Long] = {
    val st = sampler.stats
    Seq(st.steps, st.trials, st.accepts, st.preAccepts, st.fallbacks, st.initCount,
        sampler.localBytes)
  }

  /** Committed counters, one row per model in `samplers` order. */
  private val ExpectedCounters: Map[(String, String), Seq[Long]] = Map(
    "deepwalk" -> Seq(
      Seq(4800L, 55589L, 0L, 0L, 0L, 0L, 0L),
      Seq(4800L, 4800L, 0L, 0L, 0L, 0L, 0L),
      Seq(4800L, 4800L, 4800L, 0L, 0L, 0L, 0L),
      Seq(4800L, 4800L, 4800L, 4800L, 0L, 0L, 0L),
      Seq(4800L, 55589L, 0L, 0L, 0L, 0L, 0L),
      Seq(4800L, 4800L, 0L, 0L, 0L, 200L, 23304L),
      Seq(4800L, 4800L, 4061L, 0L, 0L, 200L, 800L),
      Seq(4800L, 4800L, 4002L, 0L, 0L, 200L, 800L),
      Seq(4800L, 4800L, 4047L, 0L, 0L, 200L, 800L)),
    "node2vec" -> Seq(
      Seq(4800L, 55789L, 0L, 0L, 0L, 0L, 0L),
      Seq(4800L, 4800L, 0L, 0L, 0L, 0L, 0L),
      Seq(4800L, 13496L, 4800L, 0L, 0L, 0L, 0L),
      Seq(4800L, 8053L, 4800L, 3420L, 0L, 0L, 0L),
      Seq(4800L, 55789L, 0L, 0L, 0L, 0L, 0L),
      Seq(4800L, 4800L, 0L, 0L, 0L, 1828L, 253236L),
      Seq(4800L, 4800L, 3666L, 0L, 0L, 1825L, 8568L),
      Seq(4800L, 4800L, 2209L, 0L, 0L, 1617L, 8568L),
      Seq(4800L, 4800L, 3212L, 0L, 0L, 1790L, 8568L)),
    "metapath2vec" -> Seq(
      Seq(3027L, 35925L, 0L, 0L, 0L, 0L, 0L),
      Seq(2958L, 2958L, 0L, 0L, 0L, 0L, 0L),
      Seq(2989L, 36221L, 2717L, 0L, 272L, 0L, 0L),
      Seq(2989L, 36221L, 2717L, 0L, 272L, 0L, 0L),
      Seq(3027L, 35925L, 0L, 0L, 0L, 0L, 0L),
      Seq(2958L, 2958L, 0L, 0L, 0L, 200L, 21804L),
      Seq(2948L, 2676L, 786L, 0L, 0L, 456L, 3200L),
      Seq(3082L, 2811L, 753L, 0L, 0L, 455L, 3200L),
      Seq(2883L, 2591L, 738L, 0L, 0L, 476L, 3200L)),
    "edge2vec" -> Seq(
      Seq(4800L, 55582L, 0L, 0L, 0L, 0L, 0L),
      Seq(4800L, 4800L, 0L, 0L, 0L, 0L, 0L),
      Seq(4800L, 25311L, 4800L, 0L, 0L, 0L, 0L),
      Seq(4800L, 25311L, 4800L, 1455L, 0L, 0L, 0L),
      Seq(4800L, 55582L, 0L, 0L, 0L, 0L, 0L),
      Seq(4800L, 4800L, 0L, 0L, 0L, 1791L, 247728L),
      Seq(4800L, 4800L, 3463L, 0L, 0L, 1753L, 8568L),
      Seq(4800L, 4800L, 2373L, 0L, 0L, 1557L, 8568L),
      Seq(4800L, 4800L, 3031L, 0L, 0L, 1679L, 8568L)),
    "fairwalk" -> Seq(
      Seq(4800L, 55025L, 0L, 0L, 0L, 0L, 0L),
      Seq(4800L, 4800L, 0L, 0L, 0L, 0L, 0L),
      Seq(4800L, 55902L, 4798L, 0L, 2L, 0L, 0L),
      Seq(4800L, 55902L, 4798L, 0L, 2L, 0L, 0L),
      Seq(4800L, 55025L, 0L, 0L, 0L, 0L, 0L),
      Seq(4800L, 4800L, 0L, 0L, 0L, 1675L, 230292L),
      Seq(4800L, 4800L, 3450L, 0L, 0L, 1776L, 8568L),
      Seq(4800L, 4800L, 2133L, 0L, 0L, 1372L, 8568L),
      Seq(4800L, 4800L, 2883L, 0L, 0L, 1598L, 8568L)),
  ).flatMap { case (m, cs) => samplers.map(_._1).zip(cs).map { case (s, c) => (m, s) -> c } }

  for ((mName, g, model) <- models; (sName, factory) <- samplers) {
    test(s"$mName x $sName corpus hash is unchanged") {
      val (h, _) = walkCorpus(g, model(), factory())
      assert(Expected.get((mName, sName)).contains(h), f"actual 0x$h%016XL")
    }
    test(s"$mName x $sName counters are unchanged") {
      val (_, sampler) = walkCorpus(g, model(), factory())
      val c = counters(sampler)
      assert(ExpectedCounters.get((mName, sName)).contains(c), c.mkString("actual Seq(", "L, ", "L)"))
    }
  }
}
