package repro.tgraph

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.Refs
import repro.Refs._
import repro.triangles.GraphArrays

/** Temporal graph substrate (S1): canonicalization, the columns and their
  * views, round trips.
  */
class TemporalGraphSpec extends AnyFunSuite {

  /** Interactions of a random graph on up to 12 vertices: shuffled, each
    * given twice and in both orientations, with self loops, and stamps
    * from a pool of negative, small or Int-extreme values (every graph's
    * range fits in an Int).
    */
  private def interactions(seed: Int): Seq[(Int, Int, Int)] = {
    val rnd = new Random(seed)
    val pool = Seq(Seq(Int.MinValue, Int.MinValue + 1, -7, -1), Seq(-3, 0, 5, 1 << 20),
      Seq(0, 1, Int.MaxValue - 1, Int.MaxValue))(seed % 3)
    val nV = 2 + rnd.nextInt(11)
    val once = Seq.fill(rnd.nextInt(80))((rnd.nextInt(nV), rnd.nextInt(nV), pool(rnd.nextInt(pool.size))))
    rnd.shuffle(once ++ once.map { case (u, v, t) => (v, u, t) })
  }

  /** The static edges of `inter` in `(u, v)` order, timestamps sorted and
    * distinct, by grouping.
    */
  private def expected(inter: Seq[(Int, Int, Int)]): Seq[(Int, Int, Seq[Int])] =
    inter.filter { case (u, v, _) => u != v }
      .groupBy { case (u, v, _) => (math.min(u, v), math.max(u, v)) }
      .toSeq.sortBy(_._1)
      .map { case ((u, v), xs) => (u, v, xs.map(_._3).distinct.sorted) }

  private def same(a: GraphArrays, b: GraphArrays): Boolean =
    a.upStart.sameElements(b.upStart) && a.up.sameElements(b.up) &&
      a.tsStart.sameElements(b.tsStart) && a.ts.sameElements(b.ts)

  /** `g`'s columns equal the reference copied out of `want`'s edges and
    * their adjacency, and its `edges` and `adj` views equal those.
    */
  private def assertColumns(g: TemporalGraph, want: Seq[(Int, Int, Seq[Int])], ctx: String): Unit = {
    val es = want.map { case (u, v, ts) => TEdge(u, v, ts.toArray) }.toArray
    val adj = Refs.adjacency(es)
    assert(same(GraphArrays.of(g), Refs.graphArrays(adj, es)), s"$ctx: CSR arrays")
    assert(g.u.toSeq == es.map(_.u).toSeq && g.v.toSeq == es.map(_.v).toSeq, s"$ctx: endpoints")
    assert(g.m == es.length && g.nVertexIds == adj.length, s"$ctx: sizes")
    assert(g.edges.toSeq.map(e => (e.u, e.v, e.ts.toSeq)) == want, s"$ctx: edges view")
    assert(g.adj.map(_.toSeq).toSeq == adj.map(_.toSeq).toSeq, s"$ctx: adj view")
  }

  test("columns: fromInteractions writes the reference columns, edge e at upper position e") {
    for (seed <- 0 until 60) {
      val inter = interactions(seed)
      val g = TemporalGraph.fromInteractions(inter)
      assertColumns(g, expected(inter), s"seed=$seed")
      assert(g.up.indices.forall(p => TemporalGraph.eidOf(g.up(p)) == p), s"seed=$seed: edge id = upper position")
    }
    for (inter <- Seq(Nil, Seq((1, 1, 4)), Seq((9, 5, 2), (5, 9, 2))))
      assertColumns(TemporalGraph.fromInteractions(inter), expected(inter), s"$inter")
  }

  test("columns: the TEdge constructor on a permuted edge array gives the same columns up to the id map") {
    for (seed <- 0 until 60) {
      val g = TemporalGraph.fromInteractions(interactions(seed))
      val perm = new Random(seed).shuffle(g.edges.indices.toVector).toArray // edge i of h is edge perm(i) of g
      val h = new TemporalGraph(perm.map(g.edges))
      val ctx = s"seed=$seed"
      assertColumns(h, perm.toSeq.map(i => (g.u(i), g.v(i), g.timestamps(i).toSeq)), ctx)
      assert(h.upStart.sameElements(g.upStart), s"$ctx: upStart")
      assert(h.up.indices.forall(p => TemporalGraph.nbrOf(h.up(p)) == TemporalGraph.nbrOf(g.up(p)) &&
        perm(TemporalGraph.eidOf(h.up(p))) == TemporalGraph.eidOf(g.up(p))), s"$ctx: up under the id map")
      assert(h.tMin == g.tMin && h.tMax == g.tMax, s"$ctx: time range")
      for (x <- -1 to g.nVertexIds; y <- -1 to g.nVertexIds) {
        val (a, b) = (g.edgeId(x, y), h.edgeId(x, y))
        assert(if (a < 0) b == -1 else perm(b) == a, s"$ctx: edgeId($x, $y)")
      }
    }
  }

  test("columns: both paths reject an over-wide range, and the constructor a pair given twice, with one message each") {
    val range = s"timestamp range [${Int.MinValue}, 0] is wider than Int.MaxValue; time spans would overflow"
    val viaInteractions = intercept[IllegalArgumentException](
      TemporalGraph.fromInteractions(Seq((3, 1, 0), (0, 2, Int.MinValue), (1, 2, -5))))
    val viaEdges = intercept[IllegalArgumentException](
      new TemporalGraph(Array(TEdge(1, 2, Array(-5)), TEdge(1, 3, Array(0)), TEdge(0, 2, Array(Int.MinValue)))))
    assert(viaInteractions.getMessage.endsWith(range) && viaEdges.getMessage.endsWith(range))
    // the pair in id order, and apart in a permuted array
    for ((es, ids) <- Seq(
      Array(TEdge(0, 1, Array(1)), TEdge(0, 1, Array(2)), TEdge(1, 2, Array(1))) -> "0 and 1",
      Array(TEdge(1, 2, Array(1)), TEdge(0, 3, Array(2)), TEdge(0, 2, Array(1)), TEdge(1, 2, Array(5))) -> "0 and 3")) {
      val e = intercept[IllegalArgumentException](new TemporalGraph(es))
      assert(e.getMessage.endsWith(s"a static pair is given twice, as edges $ids"))
    }
  }

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
