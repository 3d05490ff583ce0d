package repro.graph

import org.apache.spark.sql.functions.col

import repro.SparkSpec

/** Synthetic dataset generator checks: determinism, bounds, and agreement
  * between the DataFrame edge list and the CSR built from it.
  */
class GraphGenSpec extends SparkSpec {

  test("all twelve paper datasets are configured") {
    assert(GraphGen.datasets.size == 12)
    assert(GraphGen.datasets.keySet.contains("Twitter"))
    assert(GraphGen.datasets.keySet.contains("Web-UK"))
    assert(GraphGen.datasets.values.count(_.numTypes == 3) == 4)
  }

  test("paper sizes in configs match Table V") {
    val t = GraphGen.datasets("Twitter")
    assert(t.paperNodes == 41_600_000L && t.paperEdges == 2_900_000_000L)
    val b = GraphGen.datasets("BlogCatalog")
    assert(b.paperNodes == 10_300L && b.paperEdges == 668_000L)
  }

  private val cfg = GraphGen.datasets("ACM")

  test("edgesDF is deterministic in the config") {
    val a = GraphGen.edgesDF(spark, cfg).collect().map(_.toSeq).toSet
    val b = GraphGen.edgesDF(spark, cfg).collect().map(_.toSeq).toSet
    assert(a == b)
    assert(a.nonEmpty)
  }

  test("edge endpoints are valid, distinct, and normalized src < dst") {
    val rows = GraphGen.edgesDF(spark, cfg).collect()
    rows.foreach { r =>
      val (s, d) = (r.getLong(0), r.getLong(1))
      assert(s >= 0 && d < cfg.numNodes && s < d)
    }
    assert(rows.map(r => (r.getLong(0), r.getLong(1))).distinct.length == rows.length)
  }

  test("edge weights are in [0.5, 1.5)") {
    GraphGen.edgesDF(spark, cfg).collect().foreach { r =>
      val w = r.getDouble(2)
      assert(w >= 0.5 && w < 1.5)
    }
  }

  test("edge count lands near the configured target") {
    val n = GraphGen.edgesDF(spark, cfg).count()
    assert(n > cfg.targetUndirectedEdges * 0.5 && n < cfg.targetUndirectedEdges * 1.6,
           s"got $n for target ${cfg.targetUndirectedEdges}")
  }

  test("buildCSR matches the edge frame") {
    val df = GraphGen.edgesDF(spark, cfg)
    val g = GraphGen.buildCSR(spark, cfg)
    assert(g.numNodes == cfg.numNodes)
    assert(g.numUndirectedEdges == df.count())
    // Spot-check a few edges exist in both directions.
    df.limit(20).collect().foreach { r =>
      assert(g.hasEdge(r.getLong(0).toInt, r.getLong(1).toInt))
      assert(g.hasEdge(r.getLong(1).toInt, r.getLong(0).toInt))
    }
  }

  test("heterogeneous datasets carry 3 node types with 1/2,1/3,1/6 proportions") {
    val g = GraphGen.buildCSR(spark, cfg)
    assert(g.isHeterogeneous && g.numTypes == 3)
    val counts = (0 until g.numNodes).groupBy(g.nodeType).view.mapValues(_.size).toMap
    assert(math.abs(counts(0).toDouble / g.numNodes - 0.5) < 0.05)
    assert(math.abs(counts(1).toDouble / g.numNodes - 1.0 / 3) < 0.05)
    assert(math.abs(counts(2).toDouble / g.numNodes - 1.0 / 6) < 0.05)
  }

  test("homogeneous datasets build untyped CSRs") {
    val g = GraphGen.buildCSR(spark, GraphGen.datasets("BlogCatalog"))
    assert(!g.isHeterogeneous)
  }

  test("withGeneratedTypes adds types without touching the topology") {
    val g = GraphGen.buildCSR(spark, GraphGen.datasets("BlogCatalog"))
    val t = GraphGen.withGeneratedTypes(g)
    assert(t.isHeterogeneous && t.numTypes == 3)
    assert(t.numDirectedEdges == g.numDirectedEdges)
    assert(t.offsets eq g.offsets)
    // Idempotent on an already-typed graph.
    assert(GraphGen.withGeneratedTypes(t) eq t)
  }

  test("nodesDF types agree with typeOf") {
    GraphGen.nodesDF(spark, cfg).collect().foreach { r =>
      assert(r.getInt(1) == GraphGen.typeOf(r.getLong(0).toInt))
    }
  }

  test("degree skew: the generator produces a heavy head") {
    val g = GraphGen.buildCSR(spark, GraphGen.datasets("BlogCatalog"))
    assert(g.maxDegree > 5 * g.meanDegree, s"max=${g.maxDegree} mean=${g.meanDegree}")
  }

  test("zipfPairs: endpoints within range, deterministic") {
    val df = GraphGen.zipfPairs(spark, rows = 5000, nNodes = 100, seed = 3)
    val rows = df.collect()
    rows.foreach { r =>
      assert(r.getLong(0) >= 0 && r.getLong(0) < 100)
      assert(r.getLong(1) >= 0 && r.getLong(1) < 100)
    }
    assert(df.collect().map(_.toSeq).toSeq == rows.map(_.toSeq).toSeq)
  }

  test("zipfPairs: low ids are hot (skew)") {
    val df = GraphGen.zipfPairs(spark, rows = 20000, nNodes = 1000, alpha = 0.6, seed = 5)
    val hot = df.where(col("src") < 10).count()
    assert(hot > 20000 / 50, s"only $hot hits in the head") // way above uniform's 1%
  }

  test("powerLawEdges: src < dst, no self loops, deduplicated") {
    val df = GraphGen.powerLawEdges(spark, nNodes = 200, rows = 5000, seed = 7)
    val rows = df.collect()
    rows.foreach(r => assert(r.getLong(0) < r.getLong(1)))
    assert(rows.map(r => (r.getLong(0), r.getLong(1))).distinct.length == rows.length)
  }

  test("powerLawEdges: symmetric hash weights in [0.5, 1.5)") {
    GraphGen.powerLawEdges(spark, nNodes = 200, rows = 3000, seed = 9).collect().foreach { r =>
      val w = r.getDouble(2)
      assert(w >= 0.5 && w < 1.5)
    }
  }
}
