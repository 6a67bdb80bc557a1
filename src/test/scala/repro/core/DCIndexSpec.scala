package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** DC-Index derivation chain (Definitions 6–8) + DC-Query (§IV-B). */
class DCIndexSpec extends AnyFunSuite {

  private def build(seed: Int) = {
    val ts = TestGraphs.tris(TestGraphs.random(seed))
    val t = MBA.build(ts)
    (ts, t, DCIndex.fromTable(t))
  }

  for (seed <- 0 until 15) {
    test(s"random graph seed=$seed: DC-Query equals Online-Query on all (k,δ)") {
      val (ts, t, idx) = build(seed)
      for ((k, d) <- TestGraphs.allParams(ts, t.kMax)) {
        assert(idx.query(k, d).toSet == OnlineQuery.query(ts, k, d).toSet, s"k=$k d=$d")
      }
    }
  }

  for (seed <- 0 until 8) {
    test(s"random graph seed=$seed: path IESes are disjoint (no duplicate edges)") {
      val (ts, t, idx) = build(seed)
      for ((k, d) <- TestGraphs.allParams(ts, t.kMax)) {
        val res = idx.query(k, d)
        assert(res.length == res.distinct.length, s"k=$k d=$d duplicated IES edges")
      }
    }
  }

  for (seed <- 0 until 8) {
    test(s"random graph seed=$seed: DC stores no more edge entries than TC") {
      val (_, t, idx) = build(seed)
      val tc = TCIndex.fromTable(t)
      assert(idx.totalEdgeEntries <= tc.totalEdgeEntries)
    }
  }

  test("reduction: every kept non-root node has a non-empty IES") {
    val (_, _, idx) = build(2)
    for ((n, i) <- idx.nodes.zipWithIndex if i != idx.rootId) {
      assert(n.ies.nonEmpty, s"node (k=${n.k}, δ=${n.delta}) should have been reduced away")
    }
  }

  test("arborescence: parent pointers reach the root from every node") {
    val (_, _, idx) = build(7)
    for (i <- idx.nodes.indices) {
      var cur = i
      var hops = 0
      while (idx.nodes(cur).parent >= 0 && hops <= idx.nodes.length) {
        cur = idx.nodes(cur).parent; hops += 1
      }
      assert(cur == idx.rootId, s"node $i does not reach the root")
      assert(hops <= idx.nodes.length, "cycle in parent pointers")
    }
  }

  test("parent edges respect dual containment (parent k ≥ k or δ ≤ δ)") {
    val (_, _, idx) = build(9)
    for (n <- idx.nodes if n.parent >= 0) {
      val p = idx.nodes(n.parent)
      val vertical = p.k > n.k && p.delta <= n.delta
      val horizontal = p.k >= n.k && p.delta < n.delta
      assert(vertical || horizontal, s"parent (${p.k},${p.delta}) of (${n.k},${n.delta})")
    }
  }

  test("arborescence: a tie between the two outgoing edges keeps the horizontal one") {
    // at (k=3, δ=1) both weights are 1: |T_{3,1}| − |T_{4,1}| = 2 − 1 and
    // #{e : kspan(e,3) = 1} = 1
    val t = new KSpanTable(Array(4, 3), Array(Array(0, 1), Array(1)), 1)
    val idx = DCIndex.fromTable(t)
    val n = idx.nodes.find(n => n.k == 3 && n.delta == 1).get
    val p = idx.nodes(n.parent)
    assert((p.k, p.delta) == (3, 0))
    for (k <- 2 to 5; d <- 0 to 2) assert(idx.query(k, d).sorted.toSeq == t.trussEdges(k, d).toSeq, s"k=$k d=$d")
  }

  test("lookup rows are strictly increasing in δ and start at 0") {
    val (_, _, idx) = build(11)
    for (starts <- idx.runStarts) {
      assert(starts.head == 0)
      assert(starts.toSeq == starts.toSeq.sorted.distinct)
    }
  }

  test("triangle-free graph produces an empty but queryable index") {
    val g = repro.tgraph.TemporalGraph((0, 1, Seq(1)), (1, 2, Seq(2)))
    val ts = TestGraphs.tris(g)
    val idx = DCIndex.fromTable(MBA.build(ts))
    assert(idx.query(3, 100).isEmpty)
    assert(idx.query(2, 0).length == g.m)
  }

  test("running example: total DC entries below explicit storage by orders of magnitude") {
    val ts = TestGraphs.tris(TestGraphs.running)
    val t = MBA.build(ts)
    val idx = DCIndex.fromTable(t)
    assert(idx.totalEdgeEntries < t.totalTrussCells)
  }
}
