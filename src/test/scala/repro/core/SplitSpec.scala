package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.scalatest.funsuite.AnyFunSuite
import repro.Refs._
import repro.tgraph.TemporalGraph
import repro.triangles.{Tri, TriangleSet}

/** The split of MBA and DBA into triangle-connected components: the parts
  * hold whole components and every triangle once, and the assembled table
  * equals the brute-force k-spans, the other builder's and the kernel's run
  * on the whole list as one part, with every level written in place and
  * the same level arrays on every build.
  */
class SplitSpec extends AnyFunSuite {

  /** `blocks` disjoint random graphs, vertex v of block b renamed to
    * `v · blocks + b`, so a component's edges are interleaved with the
    * other blocks' in edge-id order.
    */
  private def union(seed: Int, blocks: Int): TemporalGraph =
    TemporalGraph.fromInteractions((0 until blocks).flatMap { b =>
      val g = TestGraphs.random(100 * seed + b, nV = 9 + (seed + b) % 5, pEdge = 0.5, horizon = 12)
      g.edges.toSeq.flatMap(e => e.ts.toSeq.map(t => (e.u * blocks + b, e.v * blocks + b, t)))
    })

  /** The k-spans by brute force: span(e)(k − 3) is the least δ with e in the
    * fixpoint (k, δ)-truss, for every k whose (k, δmax)-truss holds e.
    */
  private def bruteSpans(ts: TriangleSet): Array[Seq[Int]] = {
    val spans = Array.fill(ts.m)(Seq.empty[Int])
    var k = 3
    var top = TestGraphs.bruteTruss(ts, k, ts.deltaMax)
    while (top.nonEmpty) {
      for (d <- 0 to ts.deltaMax; e <- TestGraphs.bruteTruss(ts, k, d) if spans(e).length == k - 3) spans(e) :+= d
      k += 1
      top = TestGraphs.bruteTruss(ts, k, ts.deltaMax)
    }
    spans
  }

  /** Every level as (size, blocks, edge array): equal iff the arrays are. */
  private def levelArrays(t: KSpanTable): Seq[(Int, Seq[(Int, Int)], Seq[Int])] =
    (3 to t.kMax).map { k =>
      val lv = t.level(k)
      (lv.size, (0 until lv.blocks).map(b => (lv.span(b), lv.start(b))), (0 until lv.size).map(lv.edge))
    }

  private def triangles(ts: TriangleSet): Seq[Tri] = ts.tris.toSeq.sortBy(t => (t.e1, t.e2, t.e3))

  /** The parts hold whole components and, mapped to global ids, every
    * triangle once; the builders equal the brute force, each other and
    * their kernels on the whole list, write in place and repeat exactly.
    */
  private def check(ts: TriangleSet, ctx: String, brute: Boolean = true): Unit = {
    val (comp, size) = Split.components(ts)
    assert(size.sum == ts.size, s"$ctx: component sizes")
    for (tid <- 0 until ts.size)
      assert(comp(ts.e1(tid)) == comp(ts.e2(tid)) && comp(ts.e1(tid)) == comp(ts.e3(tid)), s"$ctx: triangle $tid spans components")
    for (n <- Seq(1, 2, 3, 16)) {
      val ps = Split.parts(ts, n)
      assert(ps.length == math.min(n, size.length) && ps.forall(_.ts.size > 0), s"$ctx: $n parts")
      assert(ps.map(_.ts.size).toSeq == ps.map(_.ts.size).toSeq.sorted.reverse, s"$ctx: parts not largest first")
      val owner = Array.fill(ts.m)(-1)
      for ((p, i) <- ps.zipWithIndex) {
        assert(p.global.toSeq == p.global.toSeq.sorted.distinct && p.ts.m == p.global.length, s"$ctx: part $i's local ids")
        for (e <- p.global) { assert(owner(e) < 0, s"$ctx: edge $e in parts ${owner(e)} and $i"); owner(e) = i }
        assert(p.global.map(comp).distinct.forall(c => p.global.count(comp(_) == c) == comp.count(_ == c)),
          s"$ctx: part $i holds part of a component")
      }
      assert((0 until ts.m).forall(e => (owner(e) >= 0) == (comp(e) >= 0)), s"$ctx: an edge of a triangle in no part")
      val mapped = ps.toSeq.flatMap(p => p.ts.tris.map(t => Tri(p.global(t.e1), p.global(t.e2), p.global(t.e3), t.mts)))
      assert(mapped.sortBy(t => (t.e1, t.e2, t.e3)) == triangles(ts), s"$ctx: the parts' triangles")
    }

    val mba = MBA.build(ts)
    val dba = DBA.build(ts)
    if (brute) {
      val spans = bruteSpans(ts)
      for (e <- 0 until ts.m) {
        assert(mba.trn(e) == spans(e).length + 2, s"$ctx: trussness of edge $e")
        assert(mba.spans(e).toSeq == spans(e), s"$ctx: k-spans of edge $e")
      }
    }
    assert(mba == dba, s"$ctx: MBA != DBA")
    assert(mba == MBA.sweep(ts), s"$ctx: MBA != its kernel on the whole list")
    assert(dba == DBA.decompose(ts), s"$ctx: DBA != its kernel on the whole list")
    for ((t, again, name) <- Seq((mba, MBA.build(ts), "MBA"), (dba, DBA.build(ts), "DBA"))) {
      assert(t.orderMoveNanos == 0 && again.orderMoveNanos == 0, s"$ctx: $name's assembly moved an entry")
      assert(levelArrays(t) == levelArrays(again), s"$ctx: two $name builds differ in their level arrays")
      assert(Canonical.levels(t) == Canonical.levelsOf(t), s"$ctx: $name's level orders")
    }
  }

  for (seed <- 0 until 8) {
    test(s"disjoint union of ${2 + seed % 3} random graphs, interleaved ids, seed=$seed") {
      val ts = TestGraphs.tris(union(seed, 2 + seed % 3))
      assert(Split.components(ts)._2.length >= 2, s"seed=$seed: want several components")
      check(ts, s"seed=$seed")
    }
  }

  test("one component: a 7-clique") {
    val rows = for (u <- 0 until 7; v <- (u + 1) until 7) yield (u, v, Seq((3 * u + 5 * v) % 11, (u * v) % 13 + 20).distinct)
    val ts = TestGraphs.tris(TemporalGraph(rows: _*))
    assert(Split.components(ts)._2.length == 1)
    check(ts, "7-clique")
  }

  test("the planted 14-clique graph, against DBA and the kernels") {
    check(TestGraphs.tris(TestGraphs.plantedCore._1), "planted core", brute = false)
  }

  test("a triangle-free graph and an empty graph have no parts and trivial tables") {
    for ((g, name) <- Seq((TemporalGraph((0, 1, Seq(1)), (1, 2, Seq(2)), (2, 3, Seq(5))), "path"),
                          (new TemporalGraph(Array.empty), "empty"))) {
      val ts = TestGraphs.tris(g)
      assert(Split.parts(ts, 4).isEmpty, name)
      check(ts, name)
      val t = MBA.build(ts)
      assert(t.m == g.m && t.kMax == 2 && (0 until t.m).forall(e => t.trn(e) == 2 && t.spans(e).isEmpty), name)
    }
  }

  test("a kernel that throws on one part: build rethrows it on the calling thread, after the others ran") {
    val ts = TestGraphs.tris(union(4, 4))
    val nParts = Split.parts(ts, 4 * Runtime.getRuntime.availableProcessors).length
    assert(nParts >= 2, "want several parts")
    val boom = new IllegalStateException("a failed part")
    val calls = new AtomicInteger(0)
    val kernel: TriangleSet => KSpanTable = part => if (calls.getAndIncrement() == 1) throw boom else MBA.sweep(part)
    @volatile var caught: Throwable = null
    val caller = new Thread(() => try Split.build(ts)(kernel) catch { case t: Throwable => caught = t })
    caller.start()
    caller.join(60000)
    assert(!caller.isAlive, "Split.build did not return")
    assert(caught eq boom, s"Split.build threw $caught, not the kernel's throwable")
    assert(calls.get == nParts, s"${calls.get} kernel calls for $nParts parts")
  }
}
