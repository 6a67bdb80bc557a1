package repro.tgraph

import org.scalatest.funsuite.AnyFunSuite
import repro.Refs._

/** Temporal graph substrate (S1): canonicalization, adjacency, round trips. */
class TemporalGraphSpec extends AnyFunSuite {

  test("fromInteractions canonicalizes, dedupes and sorts timestamps") {
    val g = TemporalGraph.fromInteractions(Seq((5, 2, 9), (2, 5, 3), (2, 5, 9), (1, 1, 4)))
    assert(g.m == 1) // self loop dropped, (2,5) merged
    assert(g.edges(0).u == 2 && g.edges(0).v == 5)
    assert(g.edges(0).ts.toSeq == Seq(3, 9))

    // shuffled, duplicated, both orientations, negative and Int-extreme
    // timestamps (each graph's range fits in an Int)
    val rnd = new scala.util.Random(7)
    for (pool <- Seq(Seq(Int.MinValue, Int.MinValue + 1, -7, -1),
                     Seq(-3, 0, 5, 1 << 20),
                     Seq(0, 1, Int.MaxValue - 1, Int.MaxValue))) {
      val once = Seq.fill(120)((rnd.nextInt(8), rnd.nextInt(8), pool(rnd.nextInt(pool.size))))
      val inter = rnd.shuffle(once ++ once.map { case (u, v, t) => (v, u, t) })
      val expect = inter.filter { case (u, v, _) => u != v }
        .groupBy { case (u, v, _) => (math.min(u, v), math.max(u, v)) }
        .toSeq.sortBy(_._1)
        .map { case ((u, v), xs) => (u, v, xs.map(_._3).distinct.sorted) }
      val got = TemporalGraph.fromInteractions(inter)
      assert(got.edges.toSeq.map(e => (e.u, e.v, e.ts.toSeq)) == expect)
    }
  }

  test("timestamp ranges wider than Int are rejected at construction") {
    val e = intercept[IllegalArgumentException](
      TemporalGraph((0, 1, Seq(Int.MinValue + 5)), (1, 2, Seq(Int.MaxValue - 5)), (0, 2, Seq(0))))
    assert(e.getMessage.contains(s"[${Int.MinValue + 5}, ${Int.MaxValue - 5}]"))
    intercept[IllegalArgumentException](new TemporalGraph(Array(TEdge(0, 1, Array(-1, Int.MaxValue)))))
    // a range of exactly Int.MaxValue still fits
    assert(new TemporalGraph(Array(TEdge(0, 1, Array(-1, Int.MaxValue - 1)))).m == 1)
  }

  test("vertex ids outside [0, Int.MaxValue) are rejected at ingest") {
    for (bad <- Seq((0, Int.MaxValue, 1), (Int.MaxValue, 3, 1), (-1, 2, 1)))
      intercept[IllegalArgumentException](TemporalGraph.fromInteractions(Seq((0, 1, 1), bad)))
  }

  test("edgeId resolves both orientations; missing pairs give -1") {
    val g = TemporalGraph((1, 2, Seq(1)), (2, 3, Seq(2)))
    assert(g.edgeId(1, 2) == g.edgeId(2, 1))
    assert(g.edgeId(1, 2) >= 0)
    assert(g.edgeId(1, 3) == -1)
    assert(g.edgeId(7, 9) == -1)
    val h = TemporalGraph((0, 4, Seq(1)), (0, 2, Seq(1)), (2, 3, Seq(1)), (3, 4, Seq(1)), (1, 4, Seq(1)))
    for ((e, i) <- h.edges.zipWithIndex) assert(h.edgeId(e.u, e.v) == i && h.edgeId(e.v, e.u) == i)
    assert(h.edgeId(0, 3) == -1 && h.edgeId(2, 4) == -1 && h.edgeId(-1, 2) == -1)
  }

  test("adjacency is sorted by neighbor and covers both directions") {
    val g = TemporalGraph((0, 3, Seq(1)), (0, 1, Seq(1)), (1, 3, Seq(1)))
    val n0 = g.adj(0).map(TemporalGraph.nbrOf).toSeq
    assert(n0 == n0.sorted && n0 == Seq(1, 3))
    assert(g.adj(3).map(TemporalGraph.nbrOf).toSeq == Seq(0, 1))
    assert(g.degree(0) == 2 && g.degree(2) == 0)
  }

  test("counts: vertices, timestamps, avg tau") {
    val g = TemporalGraph((0, 1, Seq(1, 5)), (1, 2, Seq(5)), (0, 2, Seq(9)))
    assert(g.numVertices == 3)
    assert(g.numDistinctTimestamps == 3)
    assert(math.abs(g.avgTimestampsPerEdge - 4.0 / 3) < 1e-9)
    assert(g.tMin == 1 && g.tMax == 9)
  }

  test("empty graph degenerates safely") {
    val g = new TemporalGraph(Array.empty)
    assert(g.m == 0 && g.numVertices == 0 && g.numDistinctTimestamps == 0)
    assert(g.avgTimestampsPerEdge == 0.0)
  }

  test("TEdge invariants are enforced") {
    intercept[IllegalArgumentException](TEdge(3, 2, Array(1)))
    intercept[IllegalArgumentException](TEdge(1, 2, Array.empty))
    intercept[IllegalArgumentException](TEdge(-1, 2, Array(1)))
    // an id of Int.MaxValue would overflow the graph's nVertexIds
    intercept[IllegalArgumentException](new TemporalGraph(Array(TEdge(0, Int.MaxValue, Array(1)))))
  }

  test("TEdge timestamps must be strictly increasing") {
    // unsorted stamps read tMin = tMax = 5 off the graph below, whose
    // range is [1, 9]; descending ones slipped past the range guard
    for (bad <- Seq(Array(9, 1), Array(Int.MaxValue - 1, -5), Array(3, 3), Array(1, 4, 4, 7), Array(1, 5, 2)))
      intercept[IllegalArgumentException](TEdge(0, 1, bad))
    for (ok <- Seq(Array(7), Array(-5, Int.MaxValue - 1), Array(Int.MinValue, 0, Int.MaxValue)))
      assert(TEdge(0, 1, ok).ts.sameElements(ok))
    val g = new TemporalGraph(Array(TEdge(0, 1, Array(1, 9)), TEdge(1, 2, Array(5))))
    assert(g.tMin == 1 && g.tMax == 9)
  }

  test("a static pair given as two edges is rejected at construction") {
    val e = intercept[IllegalArgumentException](new TemporalGraph(Array(
      TEdge(0, 1, Array(1)), TEdge(0, 1, Array(2)), TEdge(0, 2, Array(1)), TEdge(1, 2, Array(1)))))
    assert(e.getMessage.contains("edges 0 and 1"))
    // the same pair in another order, away from the front of the rows
    intercept[IllegalArgumentException](new TemporalGraph(Array(
      TEdge(2, 7, Array(1)), TEdge(0, 7, Array(1)), TEdge(2, 5, Array(1)), TEdge(2, 7, Array(4)))))
    assert(new TemporalGraph(Array(TEdge(0, 1, Array(1)), TEdge(0, 2, Array(2)), TEdge(1, 2, Array(1)))).m == 3)
  }
}
