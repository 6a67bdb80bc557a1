package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropCheck
import repro.Refs._

/** DC-Index derivation chain (Definitions 6–8) + DC-Query (§IV-B). */
class DCIndexSpec extends AnyFunSuite with PropCheck {

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
    val t = TestGraphs.table(Array(4, 3), Array(Array(0, 1), Array(1)), 1)
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

  /** The derivation over the level directories equals the grid reference
    * node for node, and so does its `approxBytes`.
    */
  private def assertMatchesGrid(t: KSpanTable, ctx: String): Unit = {
    val idx = DCIndex.fromTable(t)
    val ref = GridDC.derive(t)
    assert(Canonical.dc(idx) == Canonical.dc(ref), s"$ctx: DC diverged from the grid reference")
    assert(idx.approxBytes == ref.approxBytes, s"$ctx: approxBytes diverged from the grid reference")
  }

  private val specTables: Seq[(String, () => KSpanTable)] =
    (0 until 15).map(seed => s"random graph seed=$seed" -> (() => MBA.build(TestGraphs.tris(TestGraphs.random(seed))))) ++ Seq(
      "running example" -> (() => MBA.build(TestGraphs.tris(TestGraphs.running))),
      "planted 14-clique, kmax 12" -> (() => MBA.build(TestGraphs.tris(TestGraphs.plantedCore._1))),
      "triangle-free graph" -> (() => MBA.build(TestGraphs.tris(repro.tgraph.TemporalGraph((0, 1, Seq(1)), (1, 2, Seq(2)))))),
      "mts-0 clique" -> (() => MBA.build(TestGraphs.tris(repro.tgraph.TemporalGraph(
        (for (u <- 0 until 5; v <- (u + 1) until 5) yield (u, v, Seq(7))): _*)))),
      "tie-break table" -> (() => TestGraphs.table(Array(4, 3), Array(Array(0, 1), Array(1)), 1)),
    )
  for ((name, table) <- specTables) {
    test(s"$name: DC from the level directories equals the grid reference") {
      assertMatchesGrid(table(), name)
    }
  }

  /** On every k in `3..kMax` and δ in `D_k ∪ {0, δmax}`: `query` equals
    * the node-by-node union along the representative's path, in path order,
    * and `explain` names a representative whose runs, no more than its path
    * nodes, sum to the answer's length. Returns the cells' path nodes and
    * runs, summed.
    */
  private def assertRunsMatchPath(dc: DCIndex, t: KSpanTable, ctx: String): (Long, Long) = {
    val ref = GridDC.of(dc)
    var pathNodes = 0L
    var runs = 0L
    for (k <- 3 to dc.kMax) {
      val lv = t.level(k)
      for (d <- ((0 until lv.blocks).map(lv.span) :+ 0 :+ dc.deltaMax).distinct) {
        val got = dc.query(k, d)
        assert(got.toSeq == ref.query(k, d).toSeq, s"$ctx: k=$k d=$d: the run copies diverged from the node-by-node path")
        val ex = dc.explain(k, d)
        assert(ex.node >= 0 && ex.node == dc.runNodes(k - 3)(ex.run), s"$ctx: k=$k d=$d: no representative")
        assert(ex.runs.sum == got.length, s"$ctx: k=$k d=$d: run lengths ${ex.runs} for ${got.length} edges")
        assert(ex.runs.nonEmpty && ex.runs.length <= ex.pathNodes, s"$ctx: k=$k d=$d: ${ex.runs.length} runs on ${ex.pathNodes} path nodes")
        pathNodes += ex.pathNodes
        runs += ex.runs.length
      }
    }
    for (k <- Seq(2, dc.kMax + 1)) assert(dc.explain(k, 0) == DCIndex.Explain(-1, -1, 0, Vector.empty), s"$ctx: k=$k")
    (pathNodes, runs)
  }

  /** A random graph of 4–18 vertices, any edge density and up to 4
    * timestamps per edge.
    */
  private val graphGen = for {
    seed <- Gen.choose(0, 1 << 20)
    nV <- Gen.choose(4, 18)
    pEdge <- Gen.choose(0.1, 0.8)
    horizon <- Gen.choose(1, 60)
    maxStamps <- Gen.choose(1, 4)
  } yield TestGraphs.random(seed, nV, pEdge, horizon, maxStamps)

  test("property: DC-Query's run copies equal the node-by-node path union, and explain adds up") {
    checkProp(Prop.forAll(graphGen) { g =>
      val t = MBA.build(TestGraphs.tris(g))
      assertRunsMatchPath(DCIndex.fromTable(t), t, s"m=${g.m}")
      true
    }, minTests = 200)
  }

  test("planted 14-clique: every cell is answered, by fewer runs than path nodes") {
    val t = MBA.build(TestGraphs.tris(TestGraphs.plantedCore._1))
    val (pathNodes, runs) = assertRunsMatchPath(DCIndex.fromTable(t), t, "planted clique")
    assert(runs < pathNodes, s"$runs runs on $pathNodes path nodes")
    info(s"$runs runs on $pathNodes path nodes")
  }

  /** A table of `m ≤ 24` edges, trussness 2..7 and k-spans nondecreasing
    * in k within `[0, 40]`, with an exact or a loosened `deltaMax`.
    */
  private val tableGen: Gen[KSpanTable] = for {
    m <- Gen.choose(0, 24)
    rows <- Gen.listOfN(m, Gen.choose(0, 5).flatMap(n => Gen.listOfN(n, Gen.choose(0, 40)).map(_.sorted.toArray)))
    loosen <- Gen.oneOf(0, 0, 1, 17)
  } yield {
    val top = rows.flatten.maxOption.getOrElse(0)
    TestGraphs.table(rows.map(_.length + 2).toArray, rows.toArray, top + loosen)
  }

  test("property: DC from the level directories equals the grid reference on random tables") {
    checkProp(Prop.forAll(tableGen) { t =>
      assertMatchesGrid(t, s"m=${t.m} kMax=${t.kMax} deltaMax=${t.deltaMax}")
      true
    }, minTests = 300)
  }

  /** The held DC equals a DC derived from scratch over a copy of `t`. */
  private def assertFromScratch(dc: DCIndex, t: KSpanTable, ctx: String): Unit =
    assert(Canonical.dc(dc) == Canonical.dc(DCIndex.fromTable(t.copy())), s"$ctx: the kept DC diverged from a fresh one")

  test("property: a DC over a table that changes equals a fresh one and the grid reference") {
    checkProp(Prop.forAll(tableGen, Gen.listOfN(12, Gen.choose(0, Int.MaxValue))) { (t, picks) =>
      val dc = DCIndex.fromTable(t)
      // each pick moves one k-span within the bounds its neighbours in k
      // allow, so spans stay nondecreasing in k
      for (p <- picks if t.m > 0) {
        val e = p % t.m
        if (t.trn(e) >= 3) {
          val k = 3 + (p / t.m) % (t.trn(e) - 2)
          val lo = if (k > 3) t.span(e, k - 1) else 0
          val hi = if (k < t.trn(e)) t.span(e, k + 1) else t.deltaMax
          t.setSpan(e, k, lo + (p / 7) % (hi - lo + 1))
          val ctx = s"after k-span ($e, $k) := ${t.span(e, k)}"
          assertFromScratch(dc, t, ctx)
          assert(Canonical.dc(dc) == Canonical.dc(GridDC.derive(t)), s"$ctx: a held DC diverged from the grid reference")
          assertRunsMatchPath(dc, t, ctx)
          for (k2 <- 2 to t.kMax + 1; d <- 0 to t.deltaMax + 1)
            assert(dc.query(k2, d).sorted.toSeq == t.trussEdges(k2, d).toSeq, s"$ctx: k=$k2 d=$d")
        }
      }
      true
    }, minTests = 100)
  }

  test("fromTable returns the table's one DC, and a copy of the table has its own") {
    val t = MBA.build(TestGraphs.tris(TestGraphs.running))
    val dc = DCIndex.fromTable(t)
    assert(DCIndex.fromTable(t) eq dc)
    assert(!(DCIndex.fromTable(t.copy()) eq dc))
  }

  test("a setSpan at level k re-derives rows k..3 and keeps the nodes of the rows above k") {
    val t = MBA.build(TestGraphs.tris(TestGraphs.plantedCore._1))
    val dc = DCIndex.fromTable(t)
    assert(dc.rowsDerived == t.kMax - 2 && dc.nodesDerived == dc.nodes.length)
    for (k <- 3 to t.kMax) {
      // an edge whose k-span can move between its neighbours' in k
      def lo(e: Int) = if (k > 3) t.span(e, k - 1) else 0
      def hi(e: Int) = if (k < t.trn(e)) t.span(e, k + 1) else t.deltaMax
      val e = (0 until t.m).find(e => t.trn(e) >= k && lo(e) < hi(e)).get
      val before = dc.nodes
      t.setSpan(e, k, if (t.span(e, k) == lo(e)) hi(e) else lo(e))
      val after = dc.nodes
      assert(dc.rowsDerived == k - 2, s"k=$k")
      assert(dc.nodesDerived == after.count(_.k <= k), s"k=$k")
      val kept = before.takeWhile(_.k > k)
      assert(kept.length == after.count(_.k > k) && kept.indices.forall(i => after(i) eq kept(i)),
        s"k=$k: the nodes of the rows above k were derived again")
      assertFromScratch(dc, t, s"after a setSpan at k=$k")
    }
  }

  test("appendEdge, raiseDeltaMax and an unchanged span re-derive nothing") {
    val t = MBA.build(TestGraphs.tris(TestGraphs.plantedCore._1))
    val dc = DCIndex.fromTable(t)
    val before = dc.nodes
    val e = (0 until t.m).find(t.trn(_) >= 5).get
    for ((what, mutate) <- Seq[(String, () => Unit)](
        "appendEdge" -> (() => t.appendEdge()),
        "raiseDeltaMax" -> (() => t.raiseDeltaMax(t.deltaMax + 1)),
        "setSpan to the same span" -> (() => t.setSpan(e, 5, t.span(e, 5))))) {
      val at = t.mutations
      mutate()
      assert(t.mutations > at, what)
      assert(dc.rowsDerived == 0 && dc.nodesDerived == 0, what)
      val after = dc.nodes
      assert(after.length == before.length && after.indices.forall(i => after(i) eq before(i)), what)
      assertFromScratch(dc, t, s"after $what")
    }
  }

  test("a raise re-derives rows at its first setSpan, all on a new kMax") {
    val t = MBA.build(TestGraphs.tris(TestGraphs.plantedCore._1))
    val dc = DCIndex.fromTable(t)
    val kMax = t.kMax
    val before = dc.nodes
    t.appendEdge()
    t.raise(t.m - 1, 6)
    // a raise that keeps kMax stamps no level: nothing is derived yet
    assert(dc.rowsDerived == 0 && dc.nodesDerived == 0 && t.kMax == kMax)
    val after = dc.nodes
    assert(after.length == before.length && after.indices.forall(i => after(i) eq before(i)), "a raise re-derived a row")
    for (k <- 3 to 6) t.setSpan(t.m - 1, k, t.deltaMax)
    assert(dc.rowsDerived == 4 && t.kMax == kMax)
    assertFromScratch(dc, t, "after a raise to trn 6")
    t.appendEdge()
    t.raise(t.m - 1, kMax + 1)
    // a raise of kMax moves the root: every row is derived again at once
    assert(t.kMax == kMax + 1)
    assert(dc.rowsDerived == kMax - 1 && dc.nodesDerived == dc.nodes.length)
    for (k <- 3 to kMax + 1) t.setSpan(t.m - 1, k, 0)
    assert(dc.rowsDerived == kMax - 1 && dc.nodesDerived == dc.nodes.length)
    assertFromScratch(dc, t, "after a raise of kMax")
  }

  test("wide timestamps: a grid of more than Int.MaxValue cells answers like TC and the table") {
    // a 100-clique (kmax 100) whose edge timestamps spread over 30M: the
    // (k, δ) grid has (kmax − 2)(δmax + 1) ≈ 2.9·10⁹ cells
    val rnd = new scala.util.Random(5)
    val rows = for (u <- 0 until 100; v <- (u + 1) until 100) yield (u, v, Seq(rnd.nextInt(30000001)))
    val t = MBA.build(TestGraphs.tris(repro.tgraph.TemporalGraph(rows: _*)))
    assert(t.kMax == 100 && (t.kMax - 2).toLong * (t.deltaMax + 1L) > Int.MaxValue, s"deltaMax=${t.deltaMax}")
    val dc = DCIndex.fromTable(t)
    val tc = TCIndex.fromTable(t)
    assert(dc.totalEdgeEntries <= tc.totalEdgeEntries)
    for (k <- 2 to t.kMax + 1) {
      val spans = if (k >= 3 && k <= t.kMax) { val lv = t.level(k); Seq(lv.span(0), lv.span(lv.blocks / 2), lv.span(lv.blocks - 1)) } else Nil
      for (d <- Seq(0, t.deltaMax / 3, t.deltaMax) ++ spans.flatMap(s => Seq(s - 1, s))) {
        val want = t.trussEdges(k, d).toSeq
        assert(dc.query(k, d).sorted.toSeq == want, s"k=$k d=$d: DC")
        assert(tc.query(k, d).sorted.toSeq == want, s"k=$k d=$d: TC")
      }
    }
  }
}
