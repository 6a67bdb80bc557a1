package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** KSpanTable container semantics (membership, equality, Σ|T| accounting)
  * and the bin-sort moves that keep its level orders in TC order.
  */
class KSpanTableSpec extends AnyFunSuite {

  private def table(seed: Int): KSpanTable = MBA.build(TestGraphs.tris(TestGraphs.random(seed)))

  test("membership: k<=2 always true, k>trn always false") {
    val t = table(1)
    for (e <- 0 until t.m) {
      assert(t.inTruss(e, 2, 0))
      assert(t.inTruss(e, 0, 0))
      assert(!t.inTruss(e, t.trn(e) + 1, t.deltaMax))
    }
  }

  test("membership steps exactly at the k-span") {
    val t = table(2)
    for (e <- 0 until t.m; k <- 3 to t.trn(e)) {
      val s = t.span(e, k)
      assert(t.inTruss(e, k, s))
      if (s > 0) assert(!t.inTruss(e, k, s - 1))
    }
  }

  test("trussEdges is sorted and consistent with inTruss") {
    val t = table(3)
    for (k <- 2 to t.kMax + 1; d <- Seq(0, t.deltaMax / 2, t.deltaMax)) {
      val es = t.trussEdges(k, d)
      assert(es.toSeq == es.toSeq.sorted)
      assert(es.forall(t.inTruss(_, k, d)))
      assert((0 until t.m).filterNot(es.contains(_)).forall(e => !t.inTruss(e, k, d)))
    }
  }

  test("equality: equal for identical builds, different after perturbation") {
    val a = table(4); val b = table(4)
    assert(a == b)
    assert(a.hashCode == b.hashCode)
    if (a.m > 0 && a.trn(0) >= 3) {
      val spans2 = a.spans.map(_.clone())
      spans2(0)(0) = spans2(0)(0) + 1
      val c = new KSpanTable(a.trn.clone(), spans2, a.deltaMax)
      assert(a != c)
    }
    assert(a != new KSpanTable(a.trn.clone(), a.spans.map(_.clone()), a.deltaMax + 1))
  }

  test("kMax floors at 2 on empty tables") {
    val t = new KSpanTable(Array.empty, Array.empty, 0)
    assert(t.kMax == 2 && t.totalTrussCells == 0L && t.trussEdges(3, 0).isEmpty)
  }

  // --- level orders --------------------------------------------------------

  /** A table of one level: edge e has trn 3 and k-span `spans(e)`. */
  private def oneLevel(spans: Int*): KSpanTable =
    new KSpanTable(Array.fill(spans.length)(3), spans.map(Array(_)).toArray, spans.max)

  /** The live orders equal a fresh counting sort of the same k-spans. */
  private def assertSorted(t: KSpanTable, ctx: String): Unit =
    assert(Canonical.levels(t) == Canonical.levels(t.copy()), ctx)

  private def order(t: KSpanTable, k: Int): Seq[Int] = { val lv = t.level(k); (0 until lv.size).map(lv.edge) }
  private def directory(t: KSpanTable, k: Int): Seq[(Int, Int)] = { val lv = t.level(k); (0 until lv.blocks).map(b => (lv.span(b), lv.start(b))) }

  test("level orders: a fresh sort is by descending span, one block per distinct span") {
    val t = oneLevel(2, 5, 0, 5, 2, 7)
    assert(Canonical.levels(t) == Seq((6, Seq((7, 0, Set(5)), (5, 1, Set(1, 3)), (2, 3, Set(0, 4)), (0, 5, Set(2))))))
  }

  test("level orders: lowering and raising a span across several blocks") {
    val t = oneLevel(9, 9, 7, 7, 5, 5, 3, 3, 1, 1)
    t.level(3)
    t.setSpan(0, 3, 1) // down four blocks into an existing one
    assertSorted(t, "lowered into an existing block")
    assert(directory(t, 3) == Seq((9, 0), (7, 1), (5, 3), (3, 5), (1, 7)))
    t.setSpan(2, 3, 2) // down two blocks into a new one
    assertSorted(t, "lowered into a new block")
    assert(directory(t, 3) == Seq((9, 0), (7, 1), (5, 2), (3, 4), (2, 6), (1, 7)))
    t.setSpan(1, 3, 0) // the last edge of a block, below every block
    assertSorted(t, "emptied the top block and opened a new bottom one")
    assert(directory(t, 3) == Seq((7, 0), (5, 1), (3, 3), (2, 5), (1, 6), (0, 9)))
    t.setSpan(1, 3, 8) // up from the bottom past every block, to a new top
    assertSorted(t, "raised past every block")
    assert(directory(t, 3) == Seq((8, 0), (7, 1), (5, 2), (3, 4), (2, 6), (1, 7)))
    t.setSpan(8, 3, 5) // up two blocks into an existing one
    assertSorted(t, "raised into an existing block")
    t.setSpan(2, 3, 4) // the only edge of its block, into a new one
    assertSorted(t, "moved a singleton block")
    assert(t.level(3).blocks == 6 && t.level(3).size == 10)
  }

  test("level orders: random moves on MBA tables equal a fresh sort after each") {
    for (seed <- 0 until 6) {
      val t = table(seed)
      val rnd = new Random(seed)
      val entries = for (e <- 0 until t.m; k <- 3 to t.trn(e)) yield (e, k)
      if (entries.nonEmpty) {
        t.level(3)
        for (i <- 0 until 60) {
          val (e, k) = entries(rnd.nextInt(entries.length))
          t.setSpan(e, k, rnd.nextInt(t.deltaMax + 1))
          assertSorted(t, s"seed=$seed move $i")
        }
      }
    }
  }

  test("level orders: growRow enters the new slots, and a new kMax level") {
    val t = oneLevel(4, 2, 2, 0)
    t.level(3)
    t.trn(1) = 5
    t.growRow(1, 3)
    assert(t.kMax == 5 && t.span(1, 4) == 3 && t.span(1, 5) == 3)
    assertSorted(t, "new levels 4 and 5")
    assert(order(t, 4) == Seq(1) && order(t, 5) == Seq(1))
    t.setSpan(1, 5, 4)
    t.trn(3) = 4
    t.growRow(3, 4) // above every span of level 4
    t.trn(0) = 4
    t.growRow(0, 1) // below every span of level 4
    t.trn(2) = 4
    t.growRow(2, 3) // into level 4's existing block
    assertSorted(t, "new slots in an existing level")
    assert(directory(t, 4) == Seq((4, 0), (3, 1), (1, 3)))
  }

  test("level orders: appendEdge, before and after the first move") {
    for (moveFirst <- Seq(false, true)) {
      val t = oneLevel(3, 1, 2)
      t.level(3)
      if (moveFirst) t.setSpan(0, 3, 0)
      for (_ <- 0 until 20) t.appendEdge() // past the exact-length arrays
      assert(t.m == 23 && t.kMax == 3)
      assertSorted(t, s"appended, moveFirst=$moveFirst")
      t.trn(21) = 4
      t.growRow(21, 2)
      t.setSpan(21, 4, 3)
      t.setSpan(1, 3, 3)
      assertSorted(t, s"grew an appended edge, moveFirst=$moveFirst")
      assert(order(t, 4) == Seq(21))
    }
  }

  test("level orders: mutating a copy leaves the original and its TC unchanged") {
    val a = table(5)
    val tc = TCIndex.fromTable(a)
    def rows(idx: TCIndex) = (3 to idx.kMax).map { k =>
      val r = idx.row(k)
      ((0 until r.size).map(r.edge), (0 until r.blocks).map(r.span), (0 until r.blocks).map(r.start))
    }
    val tcBefore = rows(tc)
    val before = (3 to a.kMax).map(k => (order(a, k), directory(a, k)))
    val c = a.copy()
    c.level(3)
    val rnd = new Random(5)
    for (_ <- 0 until 40) {
      val e = rnd.nextInt(c.m)
      if (c.trn(e) >= 3) c.setSpan(e, 3, rnd.nextInt(c.deltaMax + 1))
    }
    c.appendEdge()
    c.trn(c.m - 1) = c.kMax + 1
    c.growRow(c.m - 1, 0)
    assertSorted(c, "the mutated copy")
    assert((3 to a.kMax).map(k => (order(a, k), directory(a, k))) == before)
    assert(rows(tc) == tcBefore && rows(TCIndex.fromTable(a)) == tcBefore)
  }

  test("equality ignores the order of ties within a block") {
    val a = oneLevel(5, 5, 5, 2)
    val b = oneLevel(5, 5, 5, 2)
    a.level(3)
    a.setSpan(0, 3, 3)
    a.setSpan(0, 3, 5) // back to its span, now last in the block
    assert(order(a, 3) != order(b, 3))
    assert(a == b && a.hashCode == b.hashCode)
    assert(Canonical.tc(TCIndex.fromTable(a)) == Canonical.tc(TCIndex.fromTable(b)))
    assert(Canonical.dc(DCIndex.fromTable(a)) == Canonical.dc(DCIndex.fromTable(b)))
  }
}
