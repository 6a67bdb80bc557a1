package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.maintenance.{DynamicState, IndexMaintenance}
import repro.tgraph.TemporalGraph
import repro.triangles.{DriverTriangles, TriangleSet}

/** Dynamic index maintenance (§VI) must reproduce, edge for edge and k-span
  * for k-span, what an MBA rebuild from scratch computes — after every
  * single insertion of a stream mixing brand-new edges and new timestamps
  * on existing edges.
  */
class IndexMaintenanceSpec extends AnyFunSuite {

  private def freshState(g: TemporalGraph): DynamicState = {
    val ts = DriverTriangles.enumerate(g)
    DynamicState.fromGraph(g, ts, MBA.build(ts))
  }

  private def tuple(ts: TriangleSet, tid: Int) = (ts.e1(tid), ts.e2(tid), ts.e3(tid), ts.mts(tid))

  /** The maintained store holds exactly the triangles of the current graph,
    * with their current mts, and the same incidence row for every edge.
    */
  private def assertStoreMatchesEnumeration(st: DynamicState, ctx: String): Unit = {
    val want = DriverTriangles.enumerate(st.snapshotGraph)
    assert(st.ts.size == want.size && st.ts.m == st.m, s"$ctx: store size diverged")
    assert((0 until st.ts.size).map(tuple(st.ts, _)).sorted == (0 until want.size).map(tuple(want, _)).sorted,
      s"$ctx: triangle tuples diverged")
    for (e <- 0 until st.m)
      assert(st.ts.byEdge(e).map(tuple(st.ts, _)).sorted.toSeq == want.byEdge(e).map(tuple(want, _)).sorted.toSeq,
        s"$ctx: triangles incident to edge $e diverged")
  }

  /** The maintained adjacency has the rows of the current graph, and its
    * lookup finds every edge under the graph's id.
    */
  private def assertAdjacencyMatchesGraph(st: DynamicState, ctx: String): Unit = {
    val g = st.snapshotGraph
    for (x <- 0 until g.nVertexIds)
      assert(st.adjRow(x).toSeq == g.adj(x).toSeq, s"$ctx: adjacency row of vertex $x diverged")
    for (e <- 0 until st.m) {
      val (u, v) = (st.edges(e).u, st.edges(e).v)
      assert(st.edgeId(u, v) == g.edgeId(u, v) && st.edgeId(v, u) == e, s"$ctx: edgeId of ($u,$v) diverged")
    }
  }

  private def assertMatchesRebuild(st: DynamicState, ctx: String): Unit = {
    assertStoreMatchesEnumeration(st, ctx)
    assertAdjacencyMatchesGraph(st, ctx)
    val rebuilt = MBA.build(st.snapshotTriangles)
    val got = st.snapshotTable
    assert(got.trn.toSeq == rebuilt.trn.toSeq, s"$ctx: trussness diverged")
    for (e <- 0 until got.m) {
      assert(got.spans(e).toSeq == rebuilt.spans(e).toSeq,
        s"$ctx: k-span row of edge $e (${st.edges(e).u},${st.edges(e).v}) " +
          s"got=${got.spans(e).toSeq} want=${rebuilt.spans(e).toSeq}")
    }
  }

  /** Remove `n` random temporal interactions, then replay them through the
    * maintenance path, checking against rebuild after every insertion
    * (the paper's remove-and-reinsert evaluation protocol, §VII-D): the
    * store and k-span table, one TC-Index taken over the live table before
    * the replay, and a DC-Index built from the live table view with its
    * loose `deltaMax`. The live view's `kMax` equals the snapshot's and its
    * `deltaMax` bounds the snapshot's. A snapshot, and its MBA rebuild,
    * stay equal after the next insertion. The live table's level orders,
    * the TC taken before the replay and DC over the live table equal those
    * built fresh from the snapshot ([[Canonical.assertFresh]]). The graph,
    * triangle set and table the state was seeded from, and the answers of a
    * TC over that table, stay untouched.
    */
  private def replay(seed: Int, g: TemporalGraph, n: Int): Unit = {
    val rnd = new Random(seed)
    val all = g.edges.flatMap(e => e.ts.map(t => (e.u, e.v, t)))
    val removedIdx = rnd.shuffle(all.indices.toList).take(n).toSet
    val kept = all.zipWithIndex.collect { case (x, i) if !removedIdx(i) => x }
    val removed = all.zipWithIndex.collect { case (x, i) if removedIdx(i) => x }
    // reduced graph must stay non-trivial: drop removals that empty an edge
    val keptPairs = kept.map(x => (x._1, x._2)).toSet
    val (replayable, dropped) = removed.partition(x => keptPairs.contains((x._1, x._2)))
    val base = TemporalGraph.fromInteractions(kept.toSeq)
    val baseTs = DriverTriangles.enumerate(base)
    val baseTable = MBA.build(baseTs)
    val baseTc = TCIndex.fromTable(baseTable)
    def baseAnswers = for (k <- 2 to baseTable.kMax + 1; d <- 0 to baseTable.deltaMax + 1) yield baseTc.query(k, d).toSeq
    val baseBefore = baseAnswers
    val st = DynamicState.fromGraph(base, baseTs, baseTable)
    val tc = TCIndex.fromTable(st.tableView)
    var prevSnapshot = st.snapshotTable
    var prevRebuilt = MBA.build(st.snapshotTriangles)
    for ((u, v, t) <- replayable ++ dropped) {
      val report = IndexMaintenance.insert(st, u, v, t)
      assert(prevSnapshot == prevRebuilt, s"seed=$seed: the previous snapshot changed with ($u,$v,$t)")
      assertMatchesRebuild(st, s"seed=$seed after insert ($u,$v,$t)")
      val snapshot = st.snapshotTable
      assert(st.tableView.kMax == snapshot.kMax && st.tableView.deltaMax >= snapshot.deltaMax,
        s"seed=$seed: live view bounds diverged after ($u,$v,$t)")
      prevSnapshot = snapshot
      prevRebuilt = MBA.build(st.snapshotTriangles)
      Canonical.assertFresh(st, tc, s"seed=$seed after ($u,$v,$t)")
      assert(Seq(report.trussInsertNs, report.lemma5Ns, report.gasNs, report.peelNs, report.orderMoveNs).forall(_ >= 0),
        s"seed=$seed: negative phase time after ($u,$v,$t): $report")
      assert(report.newStaticEdge || report.trussInsertNs == 0, s"seed=$seed: TrussInsert timed on a timestamp insertion")
      val exact = TCIndex.fromTable(st.snapshotTable)
      val dc = DCIndex.fromTable(st.tableView)
      for (k <- 3 to exact.kMax; d <- Seq(0, exact.deltaMax / 3, exact.deltaMax))
        assert(dc.query(k, d).sorted.toSeq == exact.query(k, d).sorted.toSeq,
          s"seed=$seed DC over the table view k=$k d=$d diverged after ($u,$v,$t)")
    }
    val fresh = new TemporalGraph(base.edges)
    assert(base.adj.length == fresh.adj.length && base.adj.indices.forall(x => base.adj(x).toSeq == fresh.adj(x).toSeq),
      s"seed=$seed: seed adjacency rows were modified")
    val again = DriverTriangles.enumerate(base)
    assert(baseTs.tris.toSeq == again.tris.toSeq && baseTs.m == again.m, s"seed=$seed: seed triangle set was modified")
    assert((0 until base.m).forall(e => baseTs.byEdge(e).toSeq == again.byEdge(e).toSeq),
      s"seed=$seed: seed incidence rows were modified")
    assert(baseTable == MBA.build(again), s"seed=$seed: seed k-span table was modified")
    assert(baseAnswers == baseBefore, s"seed=$seed: a TC over the seed table changed its answers")
  }

  for (seed <- 0 until 10) {
    test(s"random graph seed=$seed: replay 12 removed interactions") {
      replay(seed, TestGraphs.random(seed), 12)
    }
  }

  for (seed <- 10 until 14) {
    test(s"dense random graph seed=$seed: replay 10 interactions") {
      replay(seed, TestGraphs.random(seed, nV = 10, pEdge = 0.7, horizon = 15), 10)
    }
  }

  test("running example: replay 15 interactions") {
    replay(99, TestGraphs.running, 15)
  }

  test("timestamp insertion on an existing edge tightens k-spans") {
    // loose triangle: mts 9; adding t=10 to (0,2) makes it tight
    val g = TemporalGraph((0, 1, Seq(10)), (1, 2, Seq(11)), (0, 2, Seq(1)))
    val st = freshState(g)
    val r = IndexMaintenance.insert(st, 0, 2, 10)
    assert(!r.newStaticEdge)
    assertMatchesRebuild(st, "tighten")
    assert(st.tableView.span(st.edgeId(0, 1), 3) == 1)
  }

  test("duplicate timestamp is a no-op") {
    val g = TemporalGraph((0, 1, Seq(10)), (1, 2, Seq(11)), (0, 2, Seq(10)))
    val st = freshState(g)
    val r = IndexMaintenance.insert(st, 0, 2, 10)
    assert(r.changedSpans == 0 && r.verifiedKs == 0)
    assertMatchesRebuild(st, "noop")
  }

  test("edge insertion that closes a new triangle") {
    val g = TemporalGraph((0, 1, Seq(5)), (1, 2, Seq(6)))
    val st = freshState(g)
    val r = IndexMaintenance.insert(st, 0, 2, 7)
    assert(r.newStaticEdge)
    assertMatchesRebuild(st, "close-triangle")
    assert(st.tableView.trn(st.edgeId(0, 2)) == 3)
    assert(st.tableView.span(st.edgeId(0, 2), 3) == 2)
  }

  test("edge insertion with a brand-new vertex") {
    val g = TemporalGraph((0, 1, Seq(5)), (1, 2, Seq(6)), (0, 2, Seq(7)))
    val st = freshState(g)
    IndexMaintenance.insert(st, 2, 9, 3)
    assertMatchesRebuild(st, "new-vertex")
    assert(st.tableView.trn(st.edgeId(2, 9)) == 2)
  }

  test("edge insertion that upgrades surrounding trussness (L_Ek exercise)") {
    // K5 minus one edge: re-adding it upgrades the whole clique to trussness 5
    val rows = for {
      u <- 0 until 5; v <- (u + 1) until 5
      if !(u == 0 && v == 4)
    } yield (u, v, Seq(u + 2 * v))
    val st = freshState(TemporalGraph(rows: _*))
    val r = IndexMaintenance.insert(st, 0, 4, 3)
    assert(r.newStaticEdge)
    assertMatchesRebuild(st, "K5 completion")
    assert((0 until st.m).forall(st.tableView.trn(_) == 5))
  }

  test("stream: grow two overlapping cliques edge by edge from scratch-ish base") {
    val base = TemporalGraph((0, 1, Seq(1)), (1, 2, Seq(2)), (0, 2, Seq(3)))
    val st = freshState(base)
    val rnd = new Random(7)
    val extra = (for {
      u <- 0 until 6; v <- (u + 1) until 6
      if base.edgeId(u, v) == -1
    } yield (u, v)) ++ Seq((3, 6), (4, 6), (5, 6))
    for (((u, v), i) <- rnd.shuffle(extra).zipWithIndex) {
      IndexMaintenance.insert(st, u, v, 2 * i + 1)
      assertMatchesRebuild(st, s"stream step $i ($u,$v)")
    }
    // densify with second timestamps
    for (((u, v), i) <- rnd.shuffle(extra).zipWithIndex.take(8)) {
      IndexMaintenance.insert(st, u, v, 40 + i)
      assertMatchesRebuild(st, s"densify step $i ($u,$v)")
    }
  }

  test("bad input is rejected before the state changes") {
    val g = TemporalGraph((0, 1, Seq(-5)), (1, 2, Seq(6)), (0, 2, Seq(9)), (2, 3, Seq(7)))
    val st = freshState(g)
    val before = st.snapshotTable
    assert(st.edgeId(-1, 2) == -1 && st.edgeId(2, -1) == -1 && st.edgeId(3, 99) == -1)
    val bad = Seq(
      (-1, 2, 4),           // negative vertex id
      (3, -2, 4),
      (0, 2, Int.MinValue), // existing edge: 9 − Int.MinValue overflows
      (1, 3, Int.MinValue), // new edge
      (1, 3, Int.MaxValue - 4), // (Int.MaxValue − 4) − (−5) overflows
      (0, Int.MaxValue, 2), // max id + 1 overflows
      (Int.MaxValue, 3, 2),
    )
    for ((u, v, t) <- bad) {
      intercept[IllegalArgumentException](IndexMaintenance.insert(st, u, v, t))
      assert(st.snapshotTable == before && st.m == g.m && st.ts.size == 1, s"($u, $v, $t) changed the state")
      assertMatchesRebuild(st, s"after rejecting ($u, $v, $t)")
    }
    // the widest admissible range is [−5, Int.MaxValue − 5]
    assert(st.admits(Int.MaxValue - 5) && !st.admits(Int.MaxValue - 4))
    IndexMaintenance.insert(st, 1, 3, 8)
    IndexMaintenance.insert(st, 0, 2, 1)
    assertMatchesRebuild(st, "valid inserts after the rejections")
    assert(st.ts.size == 2)

    // an empty state takes any first timestamp, then bounds the range by it
    val empty = freshState(TemporalGraph())
    IndexMaintenance.insert(empty, 0, 1, Int.MinValue)
    intercept[IllegalArgumentException](IndexMaintenance.insert(empty, 1, 2, 0))
    IndexMaintenance.insert(empty, 1, 2, -1)
    assertMatchesRebuild(empty, "inserts into an empty graph")
  }
}
