package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Refs._

/** DBA and MBA must produce the same, correct k-span table (§V). */
class KSpanSpec extends AnyFunSuite {

  private def bruteSpan(ts: repro.triangles.TriangleSet, e: Int, k: Int): Int =
    (0 to ts.deltaMax).find(d => TestGraphs.bruteTruss(ts, k, d).contains(e)).get

  private val dbaInputs =
    (0 until 15).map(seed => s"random graph seed=$seed" -> (() => TestGraphs.random(seed))) :+
      ("planted 14-clique, kmax 12" -> (() => TestGraphs.plantedCore._1))
  for ((name, graph) <- dbaInputs) {
    test(s"$name: DBA == MBA") {
      val ts = TestGraphs.tris(graph())
      assert(DBA.build(ts) == MBA.build(ts))
    }
  }

  for (seed <- 0 until 10) {
    test(s"random graph seed=$seed: DBA k-spans equal brute-force k-spans") {
      val ts = TestGraphs.tris(TestGraphs.random(seed))
      val t = DBA.build(ts)
      for (e <- 0 until t.m; k <- 3 to t.trn(e)) {
        assert(t.span(e, k) == bruteSpan(ts, e, k), s"edge=$e k=$k")
      }
    }
  }

  for (seed <- 0 until 10) {
    test(s"random graph seed=$seed: table membership equals Online-Query on all (k,δ)") {
      val ts = TestGraphs.tris(TestGraphs.random(seed))
      val t = MBA.build(ts)
      for ((k, d) <- TestGraphs.allParams(ts, t.kMax)) {
        assert(t.trussEdges(k, d).toSet == OnlineQuery.query(ts, k, d).toSet, s"k=$k d=$d")
      }
    }
  }

  test("k-spans are nondecreasing in k (dual containment in the table)") {
    val ts = TestGraphs.tris(TestGraphs.running)
    val t = MBA.build(ts)
    for (e <- 0 until t.m; k <- 3 until t.trn(e)) {
      assert(t.span(e, k) <= t.span(e, k + 1), s"edge=$e k=$k")
    }
  }

  test("running example: larger graph sanity (Property 5.1)") {
    val ts = TestGraphs.tris(TestGraphs.running)
    val t = DBA.build(ts)
    for ((k, d) <- TestGraphs.allParams(ts, t.kMax); e <- t.trussEdges(k, d) if k >= 3) {
      assert(t.span(e, k) <= d) // k-span of edges in T_{k,δ} is ≤ δ
    }
  }

  test("empty and triangle-free graphs yield trivial tables") {
    val g = repro.tgraph.TemporalGraph((0, 1, Seq(1)), (1, 2, Seq(2)))
    val ts = TestGraphs.tris(g)
    val t = MBA.build(ts)
    assert(t.kMax == 2)
    assert((0 until t.m).forall(t.spans(_).isEmpty))
    assert(t.trussEdges(3, 100).isEmpty)
    assert(t.trussEdges(2, 0).length == g.m)
  }

  test("mts-0 clique graph: k-span 0 everywhere") {
    val rows = for (u <- 0 until 5; v <- (u + 1) until 5) yield (u, v, Seq(7))
    val ts = TestGraphs.tris(repro.tgraph.TemporalGraph(rows: _*))
    val t = DBA.build(ts)
    for (e <- 0 until t.m; k <- 3 to t.trn(e)) assert(t.span(e, k) == 0)
    assert(t.kMax == 5)
  }

  test("totalTrussCells counts Σ|T_{k,δ}| correctly on the running example") {
    val ts = TestGraphs.tris(TestGraphs.running)
    val t = DBA.build(ts)
    val expected = (for (k <- 3 to t.kMax; d <- 0 to t.deltaMax)
      yield t.trussEdges(k, d).length.toLong).sum
    assert(t.totalTrussCells == expected)
  }
}
