package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropCheck
import repro.tgraph.{TemporalGraph, TemporalGraphGen}
import repro.triangles.TriangleSet
import repro.Refs._

/** Timestamps as real data carries them: the descending sort on keys of one
  * to four 8-bit digits, a δmax of `Int.MaxValue`, epoch seconds, and
  * shuffled, partly duplicated, shifted and scaled copies of the email-lite
  * analog, whose k-span tables must follow from the original's
  * (metamorphic oracles).
  */
class WideTimestampSpec extends AnyFunSuite with PropCheck {

  /** MBA == DBA, and TC and DC answer like the table's scan at every k for
    * each δ of `deltas`. Returns the table.
    */
  private def assertBuilds(ts: TriangleSet, deltas: Seq[Int], ctx: String): KSpanTable = {
    val t = MBA.build(ts)
    assert(DBA.build(ts) == t, s"$ctx: DBA diverged from MBA")
    val tc = TCIndex.fromTable(t)
    val dc = DCIndex.fromTable(t)
    for (k <- 2 to t.kMax + 1; d <- deltas) {
      val want = t.trussEdges(k, d).toSeq
      assert(tc.query(k, d).sorted.toSeq == want, s"$ctx: TC at k=$k d=$d")
      assert(dc.query(k, d).sorted.toSeq == want, s"$ctx: DC at k=$k d=$d")
    }
    t
  }

  /** 0, every distinct mts and the value below it, and δmax. */
  private def mtsDeltas(ts: TriangleSet): Seq[Int] =
    (0 +: (0 until ts.size).flatMap(tid => Seq(ts.mts(tid) - 1, ts.mts(tid))) :+ ts.deltaMax).filter(_ >= 0).distinct

  test("descending: the stable order by descending key, on keys of one to four digits") {
    val keyGen = Gen.oneOf(Gen.choose(0, 3), Gen.choose(0, 255), Gen.choose(0, 70000),
      Gen.choose(0, Int.MaxValue), Gen.const(Int.MaxValue))
    checkProp(Prop.forAll(Gen.listOf(keyGen)) { keys =>
      val key = keys.toArray
      val want = key.indices.sortBy(i => (-key(i).toLong, i))
      TriangleSet.descending(key).toSeq == want
    }, minTests = 300)
    assert(TriangleSet.descending(Array.emptyIntArray).isEmpty)
    assert(TriangleSet.descending(Array(0, 0, 0)).toSeq == Seq(0, 1, 2))
    assert(TriangleSet.descending(Array(1 << 24, 1, 1 << 24, 256)).toSeq == Seq(0, 2, 3, 1))
    assertThrows[IllegalArgumentException](TriangleSet.descending(Array(3, -1)))
  }

  // a K4 on a, b, c, d whose edges ab and cd are at time 0 and the other
  // four at Int.MaxValue, plus a pendant triangle abx at 0: its K4
  // triangles have mts Int.MaxValue, so δmax is Int.MaxValue
  private val (a, b, c, d, x) = (0, 1, 2, 3, 4)
  private val maxK4 = TemporalGraph(
    (a, b, Seq(0)), (c, d, Seq(0)), (a, x, Seq(0)), (b, x, Seq(0)),
    (a, c, Seq(Int.MaxValue)), (a, d, Seq(Int.MaxValue)), (b, c, Seq(Int.MaxValue)), (b, d, Seq(Int.MaxValue)))

  test("δmax = Int.MaxValue: MBA == DBA, and TC and DC answer like the table and the brute force") {
    val ts = TestGraphs.tris(maxK4)
    assert(ts.deltaMax == Int.MaxValue)
    val t = assertBuilds(ts, Seq(0, Int.MaxValue - 1, Int.MaxValue), "K4 at Int.MaxValue")
    for (k <- 3 to t.kMax + 1; dl <- Seq(0, Int.MaxValue - 1, Int.MaxValue))
      assert(t.trussEdges(k, dl).toSet == TestGraphs.bruteTruss(ts, k, dl), s"k=$k d=$dl")
    // at (3, Int.MaxValue) the vertical weight, 8 − 6, is below the
    // horizontal one, 5: the node's IES is the two trn-3 edges ax and bx
    val dc = DCIndex.fromTable(t)
    val node = dc.nodes.find(n => n.k == 3 && n.delta == Int.MaxValue).get
    val parent = dc.nodes(node.parent)
    assert((parent.k, parent.delta) == (4, Int.MaxValue))
    assert(node.ies.toSet == Set(maxK4.edgeId(a, x), maxK4.edgeId(b, x)))
  }

  test("δmax = Int.MaxValue: totalTrussCells equals a brute-force sum of |T_{k,δ}|") {
    val t = MBA.build(TestGraphs.tris(maxK4))
    // |T_{k,δ}| changes only at a k-span, so sum it over the runs of δ
    // between consecutive spans
    val expected = (3 to t.kMax).map { k =>
      val cuts = ((0 until t.m).filter(t.trn(_) >= k).map(t.span(_, k)) :+ 0).distinct.sorted.map(_.toLong) :+ (t.deltaMax + 1L)
      cuts.sliding(2).map { case Seq(lo, hi) => t.trussEdges(k, lo.toInt).length * (hi - lo) }.sum
    }.sum
    assert(expected == 3L * (1L << 31) + 11)
    assert(t.totalTrussCells == expected)
  }

  test("epoch seconds: a K5 builds MBA == DBA, and TC and DC answer like the table") {
    val rnd = new scala.util.Random(7)
    val rows = for (u <- 0 until 5; v <- (u + 1) until 5)
      yield (u, v, Seq.fill(1 + rnd.nextInt(2))(1700000000 + rnd.nextInt(40000000)))
    val ts = TestGraphs.tris(TemporalGraph(rows: _*))
    assert(ts.deltaMax > (1 << 24), s"deltaMax=${ts.deltaMax}")
    assertBuilds(ts, mtsDeltas(ts), "epoch K5")
  }

  private lazy val email: Seq[(Int, Int, Int)] = {
    val g = TemporalGraphGen.generate(TemporalGraphGen.byName("email-lite"))
    g.edges.toSeq.flatMap(e => e.ts.map(t => (e.u, e.v, t)))
  }
  private def emailWith(f: Int => Int): TriangleSet =
    TestGraphs.tris(TemporalGraph.fromInteractions(email.map { case (u, v, t) => (u, v, f(t)) }))
  private lazy val emailTable: KSpanTable = {
    val ts = emailWith(identity)
    val t = MBA.build(ts)
    assert(DBA.build(ts) == t, "email-lite: DBA diverged from MBA")
    t
  }

  test("email-lite, interactions shuffled and a seeded tenth duplicated: the same graph, table, TC and DC answers") {
    val rnd = new scala.util.Random(13)
    val rows = rnd.shuffle(email ++ email.filter(_ => rnd.nextInt(10) == 0))
    assert(rows.length > email.length)
    def edges(g: TemporalGraph) = g.edges.toSeq.map(e => (e.u, e.v, e.ts.toSeq))
    Canonical.same(edges(TemporalGraph.fromInteractions(rows)), edges(TemporalGraph.fromInteractions(email)), "the graph changed")
    val t = MBA.build(TestGraphs.tris(TemporalGraph.fromInteractions(rows)))
    Canonical.same(t, emailTable, "the k-span table changed")
    val (tc, tc0) = (TCIndex.fromTable(t), TCIndex.fromTable(emailTable))
    val (dc, dc0) = (DCIndex.fromTable(t), DCIndex.fromTable(emailTable))
    Canonical.same(Canonical.dc(dc), Canonical.dc(dc0), "the DC changed")
    for (k <- 2 to t.kMax + 1) {
      val spans = if (k >= 3 && k <= t.kMax) { val lv = t.level(k); (0 until lv.blocks).map(lv.span) } else Nil
      for (d <- (spans :+ 0 :+ t.deltaMax).distinct) {
        Canonical.same(tc.query(k, d).sorted.toSeq, tc0.query(k, d).sorted.toSeq, s"TC answered (k=$k, δ=$d) differently")
        Canonical.same(dc.query(k, d).sorted.toSeq, dc0.query(k, d).sorted.toSeq, s"DC answered (k=$k, δ=$d) differently")
      }
    }
  }

  for (shift <- Seq(-1000000, 1700000000)) {
    test(s"email-lite, every timestamp shifted by $shift: the same k-span table, MBA == DBA") {
      val ts = emailWith(_ + shift)
      val t = MBA.build(ts)
      assert(t == emailTable)
      assert(DBA.build(ts) == t)
    }
  }

  for (scale <- Seq(3600, 2000003)) {
    test(s"email-lite, every timestamp scaled by $scale: k-spans scale, trussness and DC shape stay, MBA == DBA") {
      val base = emailTable
      assert(base.deltaMax.toLong * scale <= Int.MaxValue)
      val ts = emailWith(_ * scale)
      val t = MBA.build(ts)
      assert(DBA.build(ts) == t)
      assert(t.deltaMax == base.deltaMax * scale)
      assert(t.trn.toSeq == base.trn.toSeq)
      for (e <- 0 until t.m; k <- 3 to t.trn(e)) assert(t.span(e, k) == base.span(e, k) * scale, s"edge=$e k=$k")
      assert(DCIndex.fromTable(t).nodes.length == DCIndex.fromTable(base).nodes.length)
    }
  }
}
