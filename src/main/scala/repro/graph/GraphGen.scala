package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType}

/** Configuration of one synthetic "-lite" dataset standing in for a paper
  * dataset (DESIGN.md §4). `paperNodes` / `paperEdges` carry the real
  * dataset's published size so the memory model can reason at paper scale.
  */
final case class DatasetConfig(
    name: String,
    numNodes: Int,
    targetUndirectedEdges: Long,
    numTypes: Int,
    alpha: Double,
    seed: Long,
    paperNodes: Long,
    paperEdges: Long,
    paperMeanDegree: Double,
)

/** Synthetic substitutes for the paper's eleven (plus LiveJournal = twelve
  * named) datasets. Real downloads are unavailable offline, so each dataset
  * is a deterministic power-law graph with the paper's mean degree, scaled
  * ~100-1000x down (DESIGN.md §3-4 documents the substitution).
  */
object GraphGen {

  /** All dataset configs keyed by the paper's dataset names. */
  val datasets: Map[String, DatasetConfig] = Seq(
    //                 name          |V|     ~|E|undirected T  alpha seed  paper|V|     paper|E|        deg
    DatasetConfig("BlogCatalog",    3_000,      97_000L, 1, 0.45, 11,      10_300L,       668_000L,  64.9),
    DatasetConfig("Flickr",        10_000,     730_000L, 1, 0.45, 12,      80_500L,    11_800_000L, 146.6),
    DatasetConfig("Amazon",        30_000,      85_000L, 1, 0.45, 13,     335_000L,     1_900_000L,  5.67),
    DatasetConfig("Reddit",        20_000,     500_000L, 1, 0.45, 14,     231_000L,    11_600_000L, 50.21),
    DatasetConfig("YouTube",       50_000,     130_000L, 1, 0.50, 15,   1_100_000L,     6_000_000L,   5.3),
    DatasetConfig("LiveJournal",   60_000,     530_000L, 1, 0.50, 16,   4_800_000L,    86_200_000L,  17.8),
    DatasetConfig("Twitter",      100_000,   3_500_000L, 1, 0.45, 17,  41_600_000L, 2_900_000_000L,  69.7),
    DatasetConfig("Web-UK",       150_000,   4_700_000L, 1, 0.45, 18, 105_900_000L, 6_600_000_000L,  62.6),
    DatasetConfig("ACM",            3_000,       4_700L, 3, 0.50, 19,      11_200L,        34_800L,  3.11),
    DatasetConfig("DBLP",           8_000,      36_000L, 3, 0.50, 20,      37_800L,       341_600L,  9.04),
    DatasetConfig("DBIS",          15_000,      30_000L, 3, 0.50, 21,     134_100L,       530_600L,  3.96),
    DatasetConfig("AMiner",        40_000,     102_000L, 3, 0.50, 22,   4_900_000L,    25_000_000L,  5.10),
  ).map(c => c.name -> c).toMap

  /** Node type of node v when the network is heterogeneous: three types
    * with 1/2, 1/3, 1/6 proportions (the paper's datasets all have 3).
    * Also used when the fairwalk benchmark needs generated type info on a
    * homogeneous network (the paper does the same, citing KnightKing).
    */
  def typeOf(v: Int): Byte = (v % 6) match {
    case 0 | 1 | 2 => 0
    case 3 | 4     => 1
    case _         => 2
  }

  /** Undirected edge list (src < dst, weight) for `cfg` as a DataFrame.
    * Deterministic in the config; the same frame feeds both the CSR build
    * and the DuckDB-checked statistics in [[GraphStats]].
    */
  def edgesDF(spark: SparkSession, cfg: DatasetConfig): DataFrame = {
    // Oversample: self-loop filtering + dedup of hot zipf pairs lose a few
    // percent of rows (measured ~3-4% at these scales).
    val rows = (cfg.targetUndirectedEdges * 1.05).toLong
    powerLawEdges(spark, cfg.numNodes, rows, cfg.alpha, cfg.seed)
  }

  /** One skewed endpoint column over 0-based node ids: node k drawn with
    * probability ~ (k+1)^-alpha for alpha in (0, 1), via the exact inverse
    * CDF of the truncated continuous power law,
    *   x = (1 + u * (n^(1-alpha) - 1))^(1/(1-alpha)).
    * The alpha < 1 regime keeps the head hot but not degenerate: node 0 is
    * ~n^alpha times hotter than node n.
    */
  private def zipfNode(nNodes: Long, alpha: Double, seed: Long) = {
    require(alpha > 0 && alpha < 1, s"graph endpoint skew requires alpha in (0,1), got $alpha")
    val span = math.pow(nNodes.toDouble, 1.0 - alpha) - 1.0
    least(lit(nNodes - 1),
          greatest(lit(0L),
            (pow(lit(1.0) + rand(seed) * span, lit(1.0 / (1.0 - alpha))) - 1.0).cast(LongType)))
  }

  /** Skewed random endpoint pairs — the raw material for power-law graphs.
    * Returns columns (src, dst); self-loops are kept (callers filter).
    */
  def zipfPairs(spark: SparkSession, rows: Long, nNodes: Long,
                alpha: Double = 0.5, seed: Long = 7): DataFrame = {
    spark.range(rows).select(
      zipfNode(nNodes, alpha, seed)     as "src",
      zipfNode(nNodes, alpha, seed + 1) as "dst",
    )
  }

  /** Undirected power-law edge list: (src < dst, weight), deduplicated,
    * deterministic in (nNodes, rows, alpha, seed). Edge weight is a
    * symmetric hash of the endpoints in [0.5, 1.5) so both directions of
    * an edge always agree, matching a weighted undirected network.
    */
  def powerLawEdges(spark: SparkSession, nNodes: Long, rows: Long,
                    alpha: Double = 0.5, seed: Long = 7): DataFrame = {
    zipfPairs(spark, rows, nNodes, alpha, seed)
      .where(col("src") =!= col("dst"))
      .select(least(col("src"), col("dst")) as "src",
              greatest(col("src"), col("dst")) as "dst")
      .distinct()
      .select(col("src"), col("dst"),
              (lit(0.5) + pmod(hash(col("src"), col("dst")), lit(1000)).cast(DoubleType) / 1000.0) as "weight")
  }

  /** Node-type DataFrame (id, type) for `cfg`; all zeros if homogeneous. */
  def nodesDF(spark: SparkSession, cfg: DatasetConfig): DataFrame = {
    import spark.implicits._
    val tExpr =
      if (cfg.numTypes == 1) lit(0)
      else {
        val m = col("id") % 6
        when(m <= 2, 0).when(m <= 4, 1).otherwise(2)
      }
    spark.range(cfg.numNodes).select($"id", tExpr.cast("int") as "type")
  }

  /** Build the broadcastable CSR for `cfg` (collects the edge frame). */
  def buildCSR(spark: SparkSession, cfg: DatasetConfig): CSRGraph = {
    val rows = edgesDF(spark, cfg).collect()
    val m = rows.length
    val us = new Array[Int](m); val vs = new Array[Int](m); val ws = new Array[Float](m)
    var i = 0
    while (i < m) {
      val r = rows(i)
      us(i) = r.getLong(0).toInt; vs(i) = r.getLong(1).toInt; ws(i) = r.getDouble(2).toFloat
      i += 1
    }
    val types =
      if (cfg.numTypes == 1) null
      else Array.tabulate[Byte](cfg.numNodes)(typeOf)
    CSRGraph.fromUndirectedEdges(cfg.numNodes, us, vs, ws, types, math.max(cfg.numTypes, 1))
  }

  /** A heterogeneous view of a homogeneous dataset — fairwalk (and the
    * Table VII edge2vec runs) need type info on networks that have none,
    * mirroring the paper's randomly-generated type assignment.
    */
  def withGeneratedTypes(g: CSRGraph, numTypes: Int = 3): CSRGraph = {
    if (g.isHeterogeneous) g
    else new CSRGraph(g.numNodes, g.offsets, g.neighbors, g.weights,
                      Array.tabulate[Byte](g.numNodes)(typeOf), numTypes)
  }

  /** Small hand-buildable graph helper for tests: edges as (u, v, w). */
  def fromTriples(numNodes: Int, edges: Seq[(Int, Int, Double)],
                  types: Array[Byte] = null, numTypes: Int = 1): CSRGraph =
    CSRGraph.fromUndirectedEdges(
      numNodes,
      edges.map(_._1).toArray, edges.map(_._2).toArray, edges.map(_._3.toFloat).toArray,
      types, numTypes)
}
