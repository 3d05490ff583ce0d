package repro.sampler

import java.util.SplittableRandom

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelpers

/** Alias-table construction invariants and draw-distribution correctness. */
class AliasMethodSpec extends AnyFunSuite with PropHelpers {

  private def empirical(t: AliasTable, draws: Int, seed: Long = 1): Array[Double] = {
    val rng = new SplittableRandom(seed)
    val c = new Array[Long](t.size)
    (0 until draws).foreach(_ => c(t.draw(rng)) += 1)
    c.map(_.toDouble / draws)
  }

  test("uniform weights produce a uniform distribution") {
    val t = AliasMethod.build(Array.fill(8)(3.0))
    val emp = empirical(t, 200_000)
    emp.foreach(p => assert(math.abs(p - 0.125) < 0.01))
  }

  test("skewed weights reproduce their normalized distribution") {
    val w = Array(1.0, 2.0, 3.0, 4.0, 10.0)
    val t = AliasMethod.build(w)
    val emp = empirical(t, 400_000)
    val z = w.sum
    w.indices.foreach(i => assert(math.abs(emp(i) - w(i) / z) < 0.01))
  }

  test("zero-weight entries are never drawn") {
    val t = AliasMethod.build(Array(0.0, 5.0, 0.0, 5.0))
    val emp = empirical(t, 100_000)
    assert(emp(0) == 0.0 && emp(2) == 0.0)
    assert(math.abs(emp(1) - 0.5) < 0.01)
  }

  test("single-element distribution always returns 0") {
    val t = AliasMethod.build(Array(7.0))
    assert(empirical(t, 1000)(0) == 1.0)
  }

  test("all-zero weights build no table (no permitted edge)") {
    assert(AliasMethod.build(Array(0.0, 0.0)).size == 0)
    assert(AliasMethod.build(Array.empty[Double]).size == 0)
  }

  test("negative weights are rejected") {
    assertThrows[IllegalArgumentException](AliasMethod.build(Array(1.0, -0.1)))
  }

  test("tableBytes is 12 bytes per entry") {
    assert(AliasMethod.tableBytes(100) == 1200L)
  }

  test("property: every probability entry is within [0, 1] and aliases are valid") {
    val gen = Gen.nonEmptyListOf(Gen.choose(0.0, 50.0)).suchThat(_.sum > 0)
    forAllSamples(gen, n = 40) { ws =>
      val t = AliasMethod.build(ws.toArray)
      assert(t.size == ws.size)
      t.prob.foreach(p => assert(p >= -1e-9 && p <= 1.0 + 1e-9))
      t.alias.foreach(a => assert(a >= 0 && a < t.size))
    }
  }

  test("property: empirical distribution tracks random weight vectors") {
    val gen = Gen.listOfN(6, Gen.choose(0.1, 20.0))
    forAllSamples(gen, n = 8) { ws =>
      val t = AliasMethod.build(ws.toArray)
      val emp = empirical(t, 150_000, seed = ws.hashCode())
      val z = ws.sum
      ws.indices.foreach(i => assert(math.abs(emp(i) - ws(i) / z) < 0.02))
    }
  }
}
