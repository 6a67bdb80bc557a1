package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** TC-Index structure + TC-Query (§IV-A). */
class TCIndexSpec extends AnyFunSuite {

  private def build(seed: Int) = {
    val ts = TestGraphs.tris(TestGraphs.random(seed))
    (ts, TCIndex.fromTable(MBA.build(ts)))
  }

  for (seed <- 0 until 15) {
    test(s"random graph seed=$seed: TC-Query equals Online-Query on all (k,δ)") {
      val (ts, idx) = build(seed)
      val kMax = idx.kMax
      for ((k, d) <- TestGraphs.allParams(ts, kMax)) {
        assert(idx.query(k, d).toSet == OnlineQuery.query(ts, k, d).toSet, s"k=$k d=$d")
      }
    }
  }

  /** Row `I_k` read in place: `E_k` and the `D_k` keys and offsets. */
  private final class Row(val k: Int, val edges: Array[Int], val spans: Array[Int], val offsets: Array[Int])

  private def rows(idx: TCIndex): Seq[Row] = (3 to idx.kMax).map { k =>
    val r = idx.row(k)
    new Row(k, Array.tabulate(r.size)(r.edge), Array.tabulate(r.blocks)(r.span), Array.tabulate(r.blocks)(r.start))
  }

  test("row E_k is sorted by descending k-span and D_k offsets are consistent") {
    val ts = TestGraphs.tris(TestGraphs.running)
    val t = MBA.build(ts)
    val idx = TCIndex.fromTable(t)
    for (row <- rows(idx)) {
      val spansSeq = row.edges.map(e => t.span(e, row.k)).toSeq
      assert(spansSeq == spansSeq.sortBy(-(_: Int)), s"k=${row.k} not descending")
      assert(row.spans.toSeq == row.spans.toSeq.distinct.sortBy(-(_: Int)))
      for (i <- row.spans.indices) {
        assert(t.span(row.edges(row.offsets(i)), row.k) == row.spans(i))
        if (row.offsets(i) > 0)
          assert(t.span(row.edges(row.offsets(i) - 1), row.k) > row.spans(i))
      }
    }
  }

  test("row I_k holds exactly the static k-truss (Property 5.1 consequence)") {
    val ts = TestGraphs.tris(TestGraphs.running)
    val t = MBA.build(ts)
    val idx = TCIndex.fromTable(t)
    for (row <- rows(idx)) {
      val statik = (0 until t.m).filter(t.trn(_) >= row.k).toSet
      assert(row.edges.toSet == statik, s"k=${row.k}")
    }
  }

  test("query below the smallest k-span returns the empty set") {
    val (_, idx) = build(3)
    for (row <- rows(idx) if row.spans.nonEmpty && row.spans.last > 0) {
      assert(idx.query(row.k, row.spans.last - 1).isEmpty)
    }
  }

  test("query at δ ≥ δmax returns the full static k-truss") {
    val (ts, idx) = build(4)
    for (row <- rows(idx)) {
      assert(idx.query(row.k, ts.deltaMax).toSet == row.edges.toSet)
      assert(idx.query(row.k, ts.deltaMax + 5).toSet == row.edges.toSet)
    }
  }

  test("k ≤ 2 returns every edge; k > kmax returns none") {
    val (ts, idx) = build(5)
    assert(idx.query(2, 0).length == ts.m)
    assert(idx.query(idx.kMax + 1, ts.deltaMax).isEmpty)
  }

  for (seed <- 0 until 15) {
    test(s"random graph seed=$seed: explain's suffix is the answer's length, from the first block of span ≤ δ, on every cell") {
      val (ts, idx) = build(seed)
      for ((k, d) <- (0 to ts.deltaMax + 1).map((2, _)) ++ TestGraphs.allParams(ts, idx.kMax)) {
        val ex = idx.explain(k, d)
        assert(ex.suffix == idx.query(k, d).length, s"k=$k d=$d")
        if (k <= 2 || k > idx.kMax) assert(ex.block == -1, s"k=$k d=$d")
        else {
          val r = idx.row(k)
          assert(ex.block >= 0 && ex.block <= r.blocks, s"k=$k d=$d")
          assert(ex.block == r.blocks || r.span(ex.block) <= d, s"k=$k d=$d: block ${ex.block} has a span above δ")
          assert(ex.block == 0 || r.span(ex.block - 1) > d, s"k=$k d=$d: block ${ex.block - 1} has a span ≤ δ")
        }
      }
    }
  }

  test("size bound of Theorem 1: entries ≤ kmax·(|E| + δmax)") {
    val (ts, idx) = build(6)
    assert(idx.totalEdgeEntries <= idx.kMax.toLong * ts.m)
    val dirEntries = rows(idx).map(_.spans.length.toLong).sum
    assert(dirEntries <= idx.kMax.toLong * (ts.deltaMax + 1))
  }
}
