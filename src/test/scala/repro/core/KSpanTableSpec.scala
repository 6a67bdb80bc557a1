package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.Refs._

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
      val c = TestGraphs.table(a.trn.clone(), spans2, a.deltaMax)
      assert(a != c)
    }
    assert(a != TestGraphs.table(a.trn.clone(), a.spans.map(_.clone()), a.deltaMax + 1))
  }

  test("kMax floors at 2 on empty tables") {
    val t = TestGraphs.table(Array.empty, Array.empty, 0)
    assert(t.kMax == 2 && t.totalTrussCells == 0L && t.trussEdges(3, 0).isEmpty)
  }

  // --- level orders --------------------------------------------------------

  /** A table of one level: edge e has trn 3 and k-span `spans(e)`,
    * written in edge order.
    */
  private def oneLevel(spans: Int*): KSpanTable =
    TestGraphs.table(Array.fill(spans.length)(3), spans.map(Array(_)).toArray, spans.max)

  /** The live orders equal the reference built from the k-spans alone. */
  private def assertSorted(t: KSpanTable, ctx: String): Unit =
    assert(Canonical.levels(t) == Canonical.levelsOf(t), ctx)

  private def order(t: KSpanTable, k: Int): Seq[Int] = { val lv = t.level(k); (0 until lv.size).map(lv.edge) }
  private def directory(t: KSpanTable, k: Int): Seq[(Int, Int)] = { val lv = t.level(k); (0 until lv.blocks).map(b => (lv.span(b), lv.start(b))) }

  test("level orders: a fresh sort is by descending span, one block per distinct span") {
    val t = oneLevel(2, 5, 0, 5, 2, 7)
    val want = Seq((6, Seq((7, 0, Set(5)), (5, 1, Set(1, 3)), (2, 3, Set(0, 4)), (0, 5, Set(2)))))
    assert(Canonical.levels(t) == want && Canonical.levelsOf(t) == want)
  }

  test("level orders: first writes in any order enter them, and MBA's and DBA's land in place") {
    def exact(t: KSpanTable) = (3 to t.kMax).forall(k => t.level(k).edgeArray.length == t.level(k).size)
    for (seed <- 0 until 6) {
      val ts = TestGraphs.tris(TestGraphs.random(seed))
      val ref = MBA.build(ts)
      val dba = DBA.build(ts)
      for (t <- Seq(ref, dba)) {
        assertSorted(t, s"seed=$seed: a built table")
        // no entry moved, and no level outgrew the room allocate gave it
        assert(t.orderMoveNanos == 0 && exact(t), s"seed=$seed: a builder's entries moved")
      }
      val t = KSpanTable.allocate(ref.trn.clone(), ref.deltaMax)
      assert((3 to t.kMax).forall(k => t.level(k).size == 0 && t.level(k).blocks == 0))
      val entries = for (e <- 0 until ref.m; k <- 3 to ref.trn(e)) yield (e, k)
      for ((e, k) <- new Random(seed).shuffle(entries)) t.setSpan(e, k, ref.span(e, k))
      assert(t == ref && exact(t), s"seed=$seed: shuffled writes")
      assertSorted(t, s"seed=$seed: shuffled writes")
    }
  }

  test("level orders: copy clones them entry for entry, and neither side sees the other's moves") {
    val a = table(3)
    val rnd = new Random(3)
    def scramble(t: KSpanTable): Unit = for (_ <- 0 until 40) {
      val e = rnd.nextInt(t.m)
      if (t.trn(e) >= 3) t.setSpan(e, 3, rnd.nextInt(t.deltaMax + 1))
    }
    def orders(t: KSpanTable) = (3 to t.kMax).map(k => (order(t, k), directory(t, k)))
    scramble(a) // ties now sit in no written order
    val c = a.copy()
    val before = orders(a)
    assert(orders(c) == before && c == a)
    scramble(a)
    assert(orders(c) == before, "a move of the original reached the copy")
    assertSorted(a, "the moved original")
    assertSorted(c, "the copy")
  }

  test("level orders: lowering and raising a span across several blocks") {
    val t = oneLevel(9, 9, 7, 7, 5, 5, 3, 3, 1, 1)
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
        for (i <- 0 until 60) {
          val (e, k) = entries(rnd.nextInt(entries.length))
          t.setSpan(e, k, rnd.nextInt(t.deltaMax + 1))
          assertSorted(t, s"seed=$seed move $i")
        }
      }
    }
  }

  test("level orders: setSpan enters raised slots, and a new kMax level") {
    val t = oneLevel(4, 2, 2, 0)
    t.raise(1, 5)
    t.setSpan(1, 4, 3); t.setSpan(1, 5, 3)
    assert(t.kMax == 5 && t.span(1, 4) == 3 && t.span(1, 5) == 3)
    assertSorted(t, "new levels 4 and 5")
    assert(order(t, 4) == Seq(1) && order(t, 5) == Seq(1))
    t.setSpan(1, 5, 4)
    t.raise(3, 4); t.setSpan(3, 4, 4) // above every span of level 4
    t.raise(0, 4); t.setSpan(0, 4, 1) // below every span of level 4
    t.raise(2, 4); t.setSpan(2, 4, 3) // into level 4's existing block
    assertSorted(t, "new slots in an existing level")
    assert(directory(t, 4) == Seq((4, 0), (3, 1), (1, 3)))
  }

  test("raise leaves new slots unset and every level as it was") {
    val t = table(6)
    def levels = (3 to t.kMax).map(k => (order(t, k), directory(t, k), t.level(k).changedAt))
    val before = levels
    val kMax = t.kMax
    val e = (0 until t.m).find(t.trn(_) < kMax).get
    val row = t.spans(e).toSeq
    t.raise(e, t.trn(e) + 1) // within kMax
    assert(t.trn(e) == row.length + 3 && t.spans(e).toSeq == row :+ -1 && t.kMax == kMax)
    assert(levels == before, "a raise within kMax entered, moved or stamped a level")
    t.appendEdge()
    t.raise(t.m - 1, kMax + 2) // above kMax
    assert(t.kMax == kMax + 2 && t.spans(t.m - 1).toSeq == Seq.fill(kMax)(-1))
    assert(levels == before ++ Seq.fill(2)((Nil, Nil, 0L)), "a raise above kMax entered or stamped a level")
    intercept[IllegalArgumentException](t.raise(e, t.trn(e) - 1))
  }

  test("allocate shares one empty row across trussness 2, and raising one such edge leaves the others empty") {
    for (t <- Seq(KSpanTable.allocate(Array(2, 3, 2, 2, 4, 2), 5), table(7))) {
      val flat = (0 until t.m).filter(t.trn(_) == 2)
      assert(flat.size >= 2, "the table needs two trussness-2 edges")
      assert(flat.forall(e => t.spans(e) eq t.spans(flat.head)), "the trussness-2 rows are not one shared array")
      val e = flat.head
      t.raise(e, 4); t.setSpan(e, 3, 1); t.setSpan(e, 4, 2)
      assert(t.trn(e) == 4 && t.spans(e).toSeq == Seq(1, 2))
      for (f <- flat.tail) assert(t.trn(f) == 2 && t.spans(f).isEmpty, s"edge $f: a raise of edge $e reached its row")
    }
  }

  test("level orders: appendEdge, before and after the first move") {
    for (moveFirst <- Seq(false, true)) {
      val t = oneLevel(3, 1, 2)
      if (moveFirst) t.setSpan(0, 3, 0)
      for (_ <- 0 until 20) t.appendEdge() // past the exact-length arrays
      assert(t.m == 23 && t.kMax == 3)
      assertSorted(t, s"appended, moveFirst=$moveFirst")
      t.raise(21, 4)
      t.setSpan(21, 3, 2)
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
    val rnd = new Random(5)
    for (_ <- 0 until 40) {
      val e = rnd.nextInt(c.m)
      if (c.trn(e) >= 3) c.setSpan(e, 3, rnd.nextInt(c.deltaMax + 1))
    }
    c.appendEdge()
    c.raise(c.m - 1, c.kMax + 1)
    for (k <- 3 to c.kMax) c.setSpan(c.m - 1, k, 0)
    assertSorted(c, "the mutated copy")
    assert((3 to a.kMax).map(k => (order(a, k), directory(a, k))) == before)
    assert(rows(tc) == tcBefore && rows(TCIndex.fromTable(a)) == tcBefore)
  }

  test("equality ignores the order of ties within a block") {
    val a = oneLevel(5, 5, 5, 2)
    val b = oneLevel(5, 5, 5, 2)
    a.setSpan(0, 3, 3)
    a.setSpan(0, 3, 5) // back to its span, now last in the block
    assert(order(a, 3) != order(b, 3))
    assert(a == b && a.hashCode == b.hashCode)
    assert(Canonical.tc(TCIndex.fromTable(a)) == Canonical.tc(TCIndex.fromTable(b)))
    assert(Canonical.dc(DCIndex.fromTable(a)) == Canonical.dc(DCIndex.fromTable(b)))
  }

  // --- the union of a split build's parts ----------------------------------

  /** A part over local ids `0 until trn.length`: allocated, then its spans
    * written in a shuffled order, so its ties sit in no written order.
    */
  private def part(rnd: Random, trn: Array[Int], spans: Array[Array[Int]], deltaMax: Int): KSpanTable = {
    val t = KSpanTable.allocate(trn, deltaMax)
    for ((l, i) <- rnd.shuffle(for (l <- trn.indices; i <- spans(l).indices) yield (l, i))) t.setSpan(l, i + 3, spans(l)(i))
    t
  }

  /** `union` equals the same spans written through `allocate` and
    * `setSpan`, moves nothing, takes over the parts' rows, leaves an edge in
    * no part at trussness 2 with an empty row, and fills each block with
    * the parts' blocks of its span in part order, each in its part's order.
    */
  private def checkUnion(m: Int, deltaMax: Int, global: Array[Array[Int]], parts: Array[KSpanTable], ctx: String): Unit = {
    val trn = Array.fill(m)(2)
    val spans = Array.fill(m)(Array.emptyIntArray)
    val owner = Array.fill(m)(-1)
    for (p <- parts.indices; l <- 0 until parts(p).m) {
      val e = global(p)(l)
      trn(e) = parts(p).trn(l); spans(e) = parts(p).spans(l).clone(); owner(e) = p
    }
    val rows = parts.map(pt => (0 until pt.m).map(pt.spans(_)))
    // part p's blocks, (level, span) -> its edges in its order, as global ids
    val blocks = parts.indices.map { p =>
      (for (k <- 3 to parts(p).kMax; lv = parts(p).level(k); b <- 0 until lv.blocks)
        yield (k, lv.span(b)) -> (lv.start(b) until lv.end(b)).map(i => global(p)(lv.edge(i)))).toMap
    }
    val want = TestGraphs.table(trn, spans, deltaMax)
    val t = KSpanTable.union(m, deltaMax, global, parts, workers = 4)
    assert(t == want && t.kMax == want.kMax, s"$ctx: union != allocate + setSpan of the same spans")
    // the levels filled on four threads are those filled on one, array for array
    val seq = KSpanTable.union(m, deltaMax, global, parts, workers = 1)
    for (k <- 3 to t.kMax; (a, b) = (t.level(k), seq.level(k)))
      assert(a.size == b.size && a.blocks == b.blocks &&
        java.util.Arrays.equals(a.edgeArray, 0, a.size, b.edgeArray, 0, b.size) &&
        (0 until a.blocks).forall(i => a.span(i) == b.span(i) && a.start(i) == b.start(i)),
        s"$ctx: level $k differs from the sequential union's")
    assertSorted(t, ctx)
    assert(t.orderMoveNanos == 0, s"$ctx: union moved an entry")
    for (p <- parts.indices; l <- rows(p).indices)
      assert(t.spans(global(p)(l)) eq rows(p)(l), s"$ctx: edge ${global(p)(l)}'s row is not part $p's row")
    for (e <- 0 until m if owner(e) < 0)
      assert(t.trn(e) == 2 && t.spans(e).isEmpty, s"$ctx: edge $e, in no part")
    for (k <- 3 to t.kMax; lv = t.level(k); b <- 0 until lv.blocks) {
      val got = (lv.start(b) until lv.end(b)).map(lv.edge)
      val parted = blocks.flatMap(_.getOrElse((k, lv.span(b)), Nil))
      assert(got == parted, s"$ctx: level $k's block of span ${lv.span(b)} is not the parts' blocks in part order")
    }
  }

  test("union: hand-made parts with interleaved ids, equal spans across parts, unequal kMax, an edge in no part") {
    val rnd = new Random(1)
    val global = Array(Array(1, 4, 6, 8), Array(0, 3, 7), Array(2, 9))
    val parts = Array(
      part(rnd, Array(4, 3, 4, 3), Array(Array(7, 9), Array(2), Array(5, 9), Array(7)), 9),
      part(rnd, Array(3, 3, 3), Array(Array(7), Array(3), Array(7)), 9), // kMax 3, below the others'
      part(rnd, Array(5, 5), Array(Array(1, 4, 6), Array(7, 4, 8)), 9),
    )
    checkUnion(10, 9, global, parts, "hand-made") // edge 5 is in no part; span 7 of level 3 is in all three
  }

  test("union: zero parts give every edge trussness 2, an empty row and kMax 2") {
    for (m <- Seq(0, 5)) {
      val t = KSpanTable.union(m, 3, Array.empty, Array.empty, workers = 4)
      assert(t.m == m && t.kMax == 2 && t.deltaMax == 3, s"m=$m")
      checkUnion(m, 3, Array.empty, Array.empty, s"zero parts, m=$m")
    }
  }

  test("union: random parts over shuffled global ids, few distinct spans") {
    for (seed <- 0 until 20) {
      val rnd = new Random(seed)
      val m = 1 + rnd.nextInt(30)
      val nParts = rnd.nextInt(5)
      // each edge to a part or, one time in five, to none
      val of = Array.fill(m)(if (nParts == 0 || rnd.nextInt(5) == 0) -1 else rnd.nextInt(nParts))
      val global = Array.tabulate(nParts)(p => rnd.shuffle((0 until m).filter(of(_) == p)).toArray)
      val parts = global.map { g =>
        val trn = Array.fill(g.length)(3 + rnd.nextInt(4))
        part(rnd, trn, trn.map(t => Array.fill(t - 2)(rnd.nextInt(4))), 3)
      }
      checkUnion(m, 3, global, parts, s"seed=$seed")
    }
  }
}
