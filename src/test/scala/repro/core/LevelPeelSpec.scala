package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.triangles.TriangleSet
import repro.truss.TrussDecomposition
import repro.Refs._

/** The [[LevelPeel]] kernel alone, against the brute-force fixpoint, the
  * MBA build and a breadth-first search over the static k-truss.
  */
class LevelPeelSpec extends AnyFunSuite {

  private val inputs: Seq[(String, TriangleSet)] =
    (0 until 8).map(seed => s"random seed=$seed" -> TestGraphs.tris(TestGraphs.random(seed))) :+
      ("planted 14-clique" -> TestGraphs.tris(TestGraphs.plantedCore._1))

  /** The δ values worth checking: 0, every distinct mts and one above. */
  private def deltas(ts: TriangleSet): Seq[Int] =
    (0 +: (0 until ts.size).map(ts.mts) :+ (ts.deltaMax + 1)).distinct.sorted

  for ((name, ts) <- inputs) {
    test(s"$name: fixpoint(k) over the δ-triangles equals the brute-force (k, δ)-truss") {
      val peel = new LevelPeel(ts)
      val kMax = TrussDecomposition.trussness(ts).max
      for (k <- 3 to kMax + 1; d <- deltas(ts)) {
        peel.begin()
        for (e <- 0 until ts.m) peel.addMember(e)
        for (tid <- 0 until ts.size if ts.mts(tid) <= d) peel.addTriangle(tid)
        val kept = Set.newBuilder[Int]
        peel.fixpoint(k)(kept += _)
        assert(kept.result() == fixpointTruss(ts, k, ts.mts(_) <= d), s"k=$k δ=$d")
      }
    }

    test(s"$name: run(k, 0) over the static k-truss equals row k of MBA") {
      val table = MBA.build(ts)
      val trn = table.trn
      val peel = new LevelPeel(ts)
      for (k <- 3 to table.kMax) {
        peel.begin()
        for (e <- 0 until ts.m if trn(e) >= k) peel.addMember(e)
        for (tid <- 0 until ts.size if trn(ts.e1(tid)) >= k && trn(ts.e2(tid)) >= k && trn(ts.e3(tid)) >= k)
          peel.addTriangle(tid)
        peel.sortTriangles()
        var settled = 0
        peel.run(k, floor = 0) { (e, d) =>
          assert(d == table.span(e, k), s"edge $e k=$k")
          settled += 1
        }
        assert(settled == trn.count(_ >= k), s"k=$k: not every member settled")
      }
    }

    test(s"$name: grow from one edge collects its triangle-connected component of the static k-truss") {
      val trn = TrussDecomposition.trussness(ts)
      val peel = new LevelPeel(ts)
      for (k <- 3 to (3 +: trn).max; seed <- 0 until ts.m if trn(seed) >= k) {
        def inTruss(tid: Int) = trn(ts.e1(tid)) >= k && trn(ts.e2(tid)) >= k && trn(ts.e3(tid)) >= k
        // the reference: a BFS over the k-truss's triangles from the seed
        val edges = scala.collection.mutable.LinkedHashSet(seed)
        val tris = scala.collection.mutable.Set.empty[Int]
        val frontier = scala.collection.mutable.Queue(seed)
        while (frontier.nonEmpty)
          for (tid <- ts.byEdge(frontier.dequeue()) if inTruss(tid) && tris.add(tid); f <- Seq(ts.e1(tid), ts.e2(tid), ts.e3(tid)))
            if (edges.add(f)) frontier.enqueue(f)

        peel.begin()
        peel.addMember(seed)
        peel.grow(inTruss)(trn(_) >= k)
        val what = s"k=$k seed=$seed"
        assert(peel.memberCount == edges.size && peel.triangleCount == tris.size, what)
        peel.grow(inTruss)(trn(_) >= k)
        assert(peel.memberCount == edges.size && peel.triangleCount == tris.size, s"$what: a second grow added more")
        val kept = Set.newBuilder[Int]
        peel.fixpoint(k)(kept += _)
        assert(kept.result() == edges.toSet, s"$what: the fixpoint peeled a member")
      }
    }
  }
}
