package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.maintenance.{DynamicState, IndexMaintenance}
import repro.triangles.DriverTriangles

/** Heavier randomized stress for §VI on larger graphs, including a locality
  * check: the verified region must stay a small fraction of the graph on
  * typical insertions (the whole point of the filters).
  */
class MaintenanceStressSpec extends AnyFunSuite {

  for (seed <- 0 until 6) {
    test(s"stress seed=$seed: 20-vertex graph, 20-interaction replay vs rebuild") {
      val g = TestGraphs.random(seed + 100, nV = 20, pEdge = 0.4, horizon = 60, maxStamps = 3)
      val ts = DriverTriangles.enumerate(g)
      val st = DynamicState.fromGraph(g, ts, MBA.build(ts))
      val rnd = new Random(seed)
      val all = g.edges.flatMap(e => e.ts.map(t => (e.u, e.v, t)))
      val tc = TCIndex.fromTable(st.tableView)
      for (i <- 0 until 20) {
        val pick = rnd.nextInt(3)
        if (pick == 0) {
          // fresh timestamp on a random existing edge
          val e = rnd.nextInt(st.m)
          IndexMaintenance.insert(st, st.edges(e).u, st.edges(e).v, rnd.nextInt(60))
        } else if (pick == 1) {
          // new edge between random vertices (may collide -> timestamp case)
          val u = rnd.nextInt(20); var v = rnd.nextInt(20)
          if (u == v) v = (v + 1) % 20
          IndexMaintenance.insert(st, u, v, rnd.nextInt(60))
        } else {
          // duplicate of an original interaction
          val (u, v, t) = all(rnd.nextInt(all.length))
          IndexMaintenance.insert(st, u, v, t)
        }
        Canonical.assertFresh(st, tc, s"stress seed=$seed insert $i")
        val rebuilt = MBA.build(st.snapshotTriangles)
        val got = st.snapshotTable
        assert(got.trn.toSeq == rebuilt.trn.toSeq, "trussness diverged")
        for (e <- 0 until got.m)
          assert(got.spans(e).toSeq == rebuilt.spans(e).toSeq, s"edge $e spans diverged")
      }
    }
  }

  test("planted 14-clique: reinserts verify many levels and match the rebuild") {
    val (g, removed) = TestGraphs.plantedCore
    val ts = DriverTriangles.enumerate(g)
    val st = DynamicState.fromGraph(g, ts, MBA.build(ts))
    assert(st.tableView.kMax == 12)
    var maxVerified = 0
    var maxRegionTris = 0
    val tc = TCIndex.fromTable(st.tableView)
    for ((u, v, t) <- removed) {
      val r = IndexMaintenance.insert(st, u, v, t)
      Canonical.assertFresh(st, tc, s"planted clique insert ($u,$v,$t)")
      maxVerified = math.max(maxVerified, r.verifiedKs)
      maxRegionTris = math.max(maxRegionTris, r.regionTris)
      // Lemma 5 sees each candidate at most once per level that the filter
      // of k leaves, 3..trn(e0)
      val levels = math.max(0, st.tableView.trn(st.edgeId(u, v)) - 2)
      assert(r.lemma5Skips <= r.candidateTris * levels, s"insert ($u,$v,$t): $r")
      assert(st.snapshotTable == MBA.build(st.snapshotTriangles), s"diverged after insert ($u,$v,$t)")
    }
    assert(maxVerified >= 10, s"no reinsert verified 10 levels: at most $maxVerified")
    assert(maxRegionTris > 0, "no reinsert peeled a local triangle")
  }

  test("locality: timestamp insertions verify only a bounded region") {
    val g = TestGraphs.random(200, nV = 24, pEdge = 0.35, horizon = 100, maxStamps = 2)
    val ts = DriverTriangles.enumerate(g)
    val st = DynamicState.fromGraph(g, ts, MBA.build(ts))
    val rnd = new Random(1)
    var totalRegion = 0L
    var inserts = 0
    for (_ <- 0 until 30) {
      val e = rnd.nextInt(st.m)
      val r = IndexMaintenance.insert(st, st.edges(e).u, st.edges(e).v, rnd.nextInt(100))
      totalRegion += r.regionEdgesTotal
      inserts += 1
    }
    // each insertion may touch several k-levels, but the summed region must
    // stay well below scanning the whole k-span table every time
    val worstCase = inserts.toLong * st.m * 5
    assert(totalRegion < worstCase / 4, s"region too large: $totalRegion vs $worstCase")
  }

  test("monotonicity: k-spans never increase along an insertion stream") {
    val g = TestGraphs.random(300, nV = 16, pEdge = 0.5, horizon = 40)
    val ts = DriverTriangles.enumerate(g)
    val st = DynamicState.fromGraph(g, ts, MBA.build(ts))
    val rnd = new Random(2)
    var prev = st.snapshotTable
    for (i <- 0 until 15) {
      val e = rnd.nextInt(st.m)
      IndexMaintenance.insert(st, st.edges(e).u, st.edges(e).v, rnd.nextInt(40))
      val cur = st.snapshotTable
      for (ed <- 0 until prev.m; k <- 3 to prev.trn(ed)) {
        assert(cur.span(ed, k) <= prev.span(ed, k), s"step $i edge $ed k=$k grew")
      }
      prev = cur
    }
  }
}
