package repro.triangles

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropCheck
import repro.Refs._

/** Minimum time span (Definition 1): three-pointer vs brute force. */
class MtsSpec extends AnyFunSuite with PropCheck {

  private def m(a: Seq[Int], b: Seq[Int], c: Seq[Int]): Int =
    Mts.of(a.sorted.toArray, b.sorted.toArray, c.sorted.toArray)

  test("single timestamps: span is max pairwise distance") {
    assert(m(Seq(0), Seq(5), Seq(9)) == 9)
    assert(m(Seq(3), Seq(3), Seq(3)) == 0)
    assert(m(Seq(1), Seq(2), Seq(100)) == 99)
  }

  test("paper Example 2 shape: choosing closer stamps shrinks the span") {
    // edge (u,v) at {0, 10}, (v,w) at {1}, (w,u) at {2} -> window [0,2]
    assert(m(Seq(0, 10), Seq(1), Seq(2)) == 2)
  }

  test("duration vs mts (Fig 3): same duration, different mts") {
    // left triangle: all three pairs interact around t=5 -> small mts
    assert(m(Seq(0, 5), Seq(5, 9), Seq(4)) == 1)
    // right triangle: pairwise contacts never close in time -> large mts
    assert(m(Seq(0), Seq(4), Seq(9)) == 9)
  }

  test("mts is 0 iff the three edges share a timestamp") {
    assert(m(Seq(1, 7), Seq(7), Seq(2, 7)) == 0)
    assert(m(Seq(1, 7), Seq(8), Seq(2, 6)) > 0)
  }

  test("order of arguments is irrelevant") {
    val (a, b, c) = (Seq(3, 9, 20), Seq(1, 8), Seq(5, 40))
    val perms = Seq(a, b, c).permutations.map { case Seq(x, y, z) => m(x, y, z) }.toSeq
    assert(perms.distinct.size == 1)
  }

  private val tsGen = Gen.nonEmptyListOf(Gen.choose(0, 50))

  test("property: three-pointer equals brute force") {
    checkProp(Prop.forAll(tsGen, tsGen, tsGen) { (a, b, c) =>
      m(a, b, c) == mtsBruteForce(a.sorted.toArray, b.sorted.toArray, c.sorted.toArray)
    })
  }

  test("property: mts bounded by the overall time range") {
    checkProp(Prop.forAll(tsGen, tsGen, tsGen) { (a, b, c) =>
      val all = a ++ b ++ c
      val v = m(a, b, c)
      v >= 0 && v <= all.max - all.min
    })
  }

  test("property: adding timestamps never increases mts") {
    checkProp(Prop.forAll(tsGen, tsGen, tsGen, Gen.choose(0, 50)) { (a, b, c, extra) =>
      m(a :+ extra, b, c) <= m(a, b, c)
    })
  }
}
