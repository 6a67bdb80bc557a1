package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Index-free Online-Query (§III) against the brute-force fixpoint, plus
  * the model-level properties of Definitions 2–4 and Property 4.1.
  */
class OnlineQuerySpec extends AnyFunSuite {

  test("(2, δ)-truss is the whole graph regardless of δ") {
    val g = TestGraphs.running
    val ts = TestGraphs.tris(g)
    assert(OnlineQuery.query(ts, 2, 0).length == g.m)
    assert(OnlineQuery.query(ts, 2, 1000).length == g.m)
  }

  test("δ = δmax degenerates to the static k-truss") {
    val g = TestGraphs.running
    val ts = TestGraphs.tris(g)
    val trn = repro.truss.TrussDecomposition.trussness(ts)
    for (k <- 3 to trn.max) {
      val statik = (0 until g.m).filter(trn(_) >= k).toSet
      assert(OnlineQuery.query(ts, k, ts.deltaMax).toSet == statik, s"k=$k")
    }
  }

  test("running example: the 5-clique core survives tight deltas") {
    val g = TestGraphs.running
    val ts = TestGraphs.tris(g)
    val core = OnlineQuery.query(ts, 5, 3).toSet
    // the 5-clique on {6..10} has all pairwise interactions within [9,12]
    val clique = (for (u <- 6 to 10; v <- (u + 1) to 10) yield g.edgeId(u, v)).toSet
    assert(core == clique)
  }

  for (seed <- 0 until 15) {
    test(s"random graph seed=$seed: Online-Query equals brute-force fixpoint on all (k,δ)") {
      val g = TestGraphs.random(seed)
      val ts = TestGraphs.tris(g)
      val trn = repro.truss.TrussDecomposition.trussness(ts)
      val kMax = if (trn.isEmpty) 2 else trn.max
      for ((k, d) <- TestGraphs.allParams(ts, kMax)) {
        assert(OnlineQuery.query(ts, k, d).toSet == TestGraphs.bruteTruss(ts, k, d),
          s"k=$k delta=$d")
      }
    }
  }

  for (seed <- 15 until 23) {
    test(s"random graph seed=$seed: dual containment (Property 4.1)") {
      val g = TestGraphs.random(seed)
      val ts = TestGraphs.tris(g)
      val dm = ts.deltaMax
      val t44 = OnlineQuery.query(ts, 4, dm / 2).toSet
      val t34 = OnlineQuery.query(ts, 3, dm / 2).toSet
      val t45 = OnlineQuery.query(ts, 4, dm).toSet
      val t35 = OnlineQuery.query(ts, 3, dm).toSet
      assert(t44.subsetOf(t34)) // k+1 ⊆ k
      assert(t44.subsetOf(t45)) // δ ⊆ δ+1
      assert(t44.subsetOf(t35))
      assert(t34.subsetOf(t35))
    }
  }

  test("δ-support example of Definition 3: support steps with δ") {
    // two triangles sharing edge (0,1): one tight (mts 1), one loose (mts 9)
    val g = repro.tgraph.TemporalGraph(
      (0, 1, Seq(10)), (0, 2, Seq(10)), (1, 2, Seq(11)),
      (0, 3, Seq(1)), (1, 3, Seq(10)),
    )
    val ts = TestGraphs.tris(g)
    val e01 = g.edgeId(0, 1)
    def dsup(delta: Int): Int =
      ts.byEdge(e01).count(tid => ts.mts(tid) <= delta)
    assert(dsup(0) == 0)
    assert(dsup(1) == 1)
    assert(dsup(9) == 2)
  }
}
