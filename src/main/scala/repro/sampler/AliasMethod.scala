package repro.sampler

import java.util.SplittableRandom

/** An alias table: O(1) draws from a fixed discrete distribution after an
  * O(n) build (Walker's method [34], the sampler node2vec's reference
  * implementation precomputes per state).
  */
final class AliasTable(val prob: Array[Double], val alias: Array[Int]) extends Serializable {
  def size: Int = prob.length

  /** Draw an index in [0, size) distributed as the build weights. */
  def draw(rng: SplittableRandom): Int = {
    val i = rng.nextInt(prob.length)
    if (rng.nextDouble() < prob(i)) i else alias(i)
  }
}

object AliasMethod {

  /** Bytes an n-entry table occupies: one double + one int per entry. */
  def tableBytes(n: Int): Long = 12L * n

  /** The size-0 table of a distribution with no mass. */
  val empty = new AliasTable(Array.emptyDoubleArray, Array.emptyIntArray)

  /** Vose's stable alias construction. Weights must be >= 0 with a
    * positive sum; zero-weight entries get probability 0 (their slot
    * always forwards to an alias). Returns the empty table when there is
    * no weight or the sum is 0; callers test `size == 0` for "no permitted
    * edge" (a broadcast copy is not `eq` to `empty`).
    */
  def build(weights: Array[Double]): AliasTable = {
    val n = weights.length
    if (n == 0) return empty
    var sum = 0.0
    var i = 0
    while (i < n) { require(weights(i) >= 0, "negative weight"); sum += weights(i); i += 1 }
    if (sum <= 0) return empty
    val prob = new Array[Double](n)
    val alias = new Array[Int](n)
    val scaled = new Array[Double](n)
    val small = new Array[Int](n); var nSmall = 0
    val large = new Array[Int](n); var nLarge = 0
    i = 0
    while (i < n) {
      scaled(i) = weights(i) * n / sum
      if (scaled(i) < 1.0) { small(nSmall) = i; nSmall += 1 }
      else { large(nLarge) = i; nLarge += 1 }
      i += 1
    }
    while (nSmall > 0 && nLarge > 0) {
      nSmall -= 1; val s = small(nSmall)
      val l = large(nLarge - 1)
      prob(s) = scaled(s)
      alias(s) = l
      scaled(l) = (scaled(l) + scaled(s)) - 1.0
      if (scaled(l) < 1.0) { nLarge -= 1; small(nSmall) = l; nSmall += 1 }
    }
    while (nLarge > 0) { nLarge -= 1; prob(large(nLarge)) = 1.0; alias(large(nLarge)) = large(nLarge) }
    while (nSmall > 0) { nSmall -= 1; prob(small(nSmall)) = 1.0; alias(small(nSmall)) = small(nSmall) }
    new AliasTable(prob, alias)
  }
}
