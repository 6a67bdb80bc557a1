package repro.truss

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TestGraphs
import repro.tgraph.TemporalGraph
import repro.triangles.TriangleSet
import repro.Refs._

/** Static truss decomposition (substrate S5) against naive fixpoints. */
class TrussDecompositionSpec extends AnyFunSuite {

  test("triangle-free graph: every edge has trussness 2") {
    val g = TemporalGraph((0, 1, Seq(1)), (1, 2, Seq(2)), (2, 3, Seq(3)), (3, 4, Seq(4)))
    val trn = TrussDecomposition.trussness(TestGraphs.tris(g))
    assert(trn.toSeq == Seq.fill(g.m)(2))
  }

  test("a single triangle is a 3-truss") {
    val g = TemporalGraph((0, 1, Seq(1)), (1, 2, Seq(2)), (0, 2, Seq(3)))
    val trn = TrussDecomposition.trussness(TestGraphs.tris(g))
    assert(trn.toSeq == Seq.fill(3)(3))
  }

  test("K5: every edge has trussness 5") {
    val rows = for (u <- 0 until 5; v <- (u + 1) until 5) yield (u, v, Seq(u + v))
    val g = TemporalGraph(rows: _*)
    val trn = TrussDecomposition.trussness(TestGraphs.tris(g))
    assert(trn.toSeq == Seq.fill(10)(5))
  }

  test("K5 plus pendant triangle: pendant edges are 3, clique edges 5") {
    val rows = (for (u <- 0 until 5; v <- (u + 1) until 5) yield (u, v, Seq(1))) ++
      Seq((4, 5, Seq(1)), (4, 6, Seq(1)), (5, 6, Seq(1)))
    val g = TemporalGraph(rows: _*)
    val ts = TestGraphs.tris(g)
    val trn = TrussDecomposition.trussness(ts)
    for (e <- 0 until g.m) {
      val te = g.edges(e)
      if (te.v >= 5 || te.u >= 5) assert(trn(e) == 3, s"pendant edge $te")
      else assert(trn(e) == 5, s"clique edge $te")
    }
  }

  // trussness level sets must equal the naive fixpoint truss at every k
  for (seed <- 0 until 12) {
    test(s"random graph seed=$seed: level sets match fixpoint k-trusses") {
      val g = TestGraphs.random(seed)
      val ts = TestGraphs.tris(g)
      val trn = TrussDecomposition.trussness(ts)
      val kMax = if (g.m == 0) 2 else trn.max
      for (k <- 3 to kMax + 1) {
        val expected = fixpointTruss(ts, k, _ => true)
        val got = (0 until g.m).filter(trn(_) >= k).toSet
        assert(got == expected, s"k=$k")
      }
    }
  }

  // the same for δ-restricted validity: level sets are the (k,δ)-trusses
  for (seed <- 12 until 20) {
    test(s"random graph seed=$seed: delta-trussness level sets are (k,delta)-trusses") {
      val g = TestGraphs.random(seed)
      val ts = TestGraphs.tris(g)
      val delta = ts.deltaMax / 2
      // the δ-triangles alone, as their own store over the same edges
      val dTris = (0 until ts.size).filter(ts.mts(_) <= delta)
        .flatMap(i => Seq(ts.e1(i), ts.e2(i), ts.e3(i), ts.mts(i))).toArray
      val trnD = TrussDecomposition.trussness(TriangleSet.fromPacked(dTris, ts.m))
      val kMax = if (trnD.isEmpty) 2 else trnD.max
      for (k <- 3 to kMax + 1) {
        val expected = TestGraphs.bruteTruss(ts, k, delta)
        val got = (0 until g.m).filter(trnD(_) >= k).toSet
        assert(got == expected, s"k=$k delta=$delta")
      }
    }
  }
}
