package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropCheck
import repro.core.maintenance.{DynamicState, IndexMaintenance}
import repro.triangles.{DriverTriangles, TriangleSet}

/** §VI maintenance under random insert streams on random small graphs.
  * A stream holds new vertices, duplicate interactions, bursts of
  * timestamps on one edge and timestamps outside the current range, with
  * rejected inputs mixed in: a self loop, a negative vertex id, the vertex
  * id `Int.MaxValue` and a timestamp that widens the time range past
  * `Int.MaxValue`. Each rejected input throws `IllegalArgumentException`
  * and leaves the edges, the triangles and the table as they were. At the
  * end of the stream the state's triangles are those of its graph, and
  * the live table, and a TC and a DC taken over it before the stream,
  * equal an MBA rebuild of the graph ([[Canonical.assertFresh]]).
  */
class InsertStreamSpec extends AnyFunSuite with PropCheck {
  import InsertStreamSpec.Op

  private val opGen: Gen[Op] = for {
    kind <- Gen.choose(0, 9)
    a <- Gen.choose(0, 1 << 16)
    b <- Gen.choose(0, 1 << 16)
    c <- Gen.choose(0, 1 << 16)
  } yield Op(kind, a, b, c)

  private val caseGen = for {
    seed <- Gen.choose(0, 100000)
    nV <- Gen.choose(3, 12)
    pEdge <- Gen.choose(0.2, 0.8)
    horizon <- Gen.choose(2, 25)
    n <- Gen.choose(1, 16)
    ops <- Gen.listOfN(n, opGen)
  } yield (seed, nV, pEdge, horizon, ops)

  private def tuples(ts: TriangleSet): Seq[(Int, Int, Int, Int)] =
    (0 until ts.size).map(i => (ts.e1(i), ts.e2(i), ts.e3(i), ts.mts(i))).sorted

  private def edges(st: DynamicState): Seq[(Int, Int, Seq[Int])] = st.edges.toSeq.map(e => (e.u, e.v, e.ts.toSeq))

  /** The interactions that `op` inserts into `st` as it is now, and
    * whether `insert` must reject them.
    */
  private def interactions(st: DynamicState, op: Op): (Seq[(Int, Int, Int)], Boolean) = {
    val all = st.edges.flatMap(_.ts)
    val (lo, hi) = if (all.isEmpty) (0, 0) else (all.min, all.max)
    val maxV = st.edges.foldLeft(-1)((top, e) => math.max(top, e.v))
    def inRange(x: Int) = (lo + x % (hi.toLong - lo + 1)).toInt
    // `t` if the state admits it, else a timestamp in the range: near the
    // widest admissible range, a step that widens it still inserts
    def admitted(t: Long, x: Int) = if (t.isValidInt && st.admits(t.toInt)) t.toInt else inRange(x)
    def vertex(x: Int) = x % (maxV + 2) // a seen vertex or the next new one
    def edge = st.edges(op.a % st.m)
    // with no edge yet, a step that picks one inserts an edge of new vertices
    if (st.m == 0 && op.kind <= 2) return (Seq((maxV + 1, maxV + 2, op.c % 7)), false)
    op.kind match {
      case 0 => // a new vertex
        (Seq((op.a % (maxV + 1), maxV + 1 + op.b % 2, inRange(op.c))), false)
      case 1 => // a duplicate interaction, in either orientation
        val e = edge; val t = e.ts(op.b % e.ts.length)
        (Seq(if (op.c % 2 == 0) (e.u, e.v, t) else (e.v, e.u, t)), false)
      case 2 => // a burst of timestamps on one edge, repeats among them
        val e = edge
        (Seq.tabulate(2 + op.b % 3)(i => (e.u, e.v, inRange(op.c + i * (op.b % 5)))), false)
      case 3 => // a timestamp outside the current range
        val u = vertex(op.a)
        (Seq((u, u + 1 + op.b % 3, admitted(if (op.c % 2 == 0) hi + 1L + op.c % 9 else lo - 1L - op.c % 9, op.c))), false)
      case 4 | 5 => // any pair of seen or new vertices, near the range
        val u = op.a % (maxV + 3); val v = op.b % (maxV + 3)
        (Seq((u, if (u == v) u + 1 else v, admitted(lo - 2L + op.c % (hi - lo + 5L), op.c))), false)
      case 6 => // a self loop
        (Seq((vertex(op.a), vertex(op.a), inRange(op.c))), true)
      case 7 => // a negative vertex id
        val bad = -1 - op.b % 3
        (Seq(if (op.c % 2 == 0) (bad, vertex(op.a), inRange(op.c)) else (vertex(op.a), bad, inRange(op.c))), true)
      case 8 => // the vertex id Int.MaxValue
        (Seq(if (op.c % 2 == 0) (Int.MaxValue, vertex(op.a), inRange(op.c)) else (vertex(op.a), Int.MaxValue, inRange(op.c))), true)
      case _ => // a timestamp that widens the range past Int.MaxValue, on an old or a new edge
        if (st.m == 0) return (Seq((vertex(op.a), vertex(op.a) + 1, Int.MinValue)), false)
        val t =
          if (hi >= 0) math.max(Int.MinValue.toLong, hi.toLong - Int.MaxValue - 1 - op.b % 1000).toInt
          else math.min(Int.MaxValue.toLong, lo.toLong + Int.MaxValue + 1 + op.b % 1000).toInt
        val (u, v) = if (op.c % 2 == 0) (edge.u, edge.v) else (vertex(op.a), vertex(op.a) + 1)
        (Seq((u, v, t)), true)
    }
  }

  test("property: random insert streams end at the rebuild, and rejected inputs change nothing") {
    // no shrinking: scalacheck shrinks an Int past its generator's range,
    // to negative picks and an empty horizon, so a failure reports its draw
    checkProp(Prop.forAllNoShrink(caseGen) { case (seed, nV, pEdge, horizon, ops) =>
      val g = TestGraphs.random(seed, nV = nV, pEdge = pEdge, horizon = horizon)
      val ts0 = DriverTriangles.enumerate(g)
      val st = DynamicState.fromGraph(g, ts0, MBA.build(ts0))
      val tc = TCIndex.fromTable(st.tableView)
      val dc = DCIndex.fromTable(st.tableView)
      val ctx = s"seed=$seed nV=$nV pEdge=$pEdge horizon=$horizon ops=$ops"
      for (op <- ops) {
        val (xs, rejected) = interactions(st, op)
        for ((u, v, t) <- xs) {
          if (rejected) {
            val (es, tris, table) = (edges(st), tuples(st.snapshotTriangles), st.snapshotTable)
            val levels = Canonical.levels(table)
            intercept[IllegalArgumentException](IndexMaintenance.insert(st, u, v, t))
            assert(edges(st) == es, s"$ctx: rejected ($u, $v, $t) changed the edges")
            assert(tuples(st.snapshotTriangles) == tris, s"$ctx: rejected ($u, $v, $t) changed the triangles")
            assert(st.snapshotTable == table && Canonical.levels(st.snapshotTable) == levels,
              s"$ctx: rejected ($u, $v, $t) changed the table")
          } else IndexMaintenance.insert(st, u, v, t)
        }
      }
      val enumerated = DriverTriangles.enumerate(st.snapshotGraph)
      assert(tuples(st.snapshotTriangles) == tuples(enumerated), s"$ctx: the state's triangles are not its graph's")
      Canonical.assertFresh(st, MBA.build(enumerated), tc, dc, ctx)
      true
    }, minTests = 500)
  }

  /** A cell to read after one insert: `kind` picks k, and `x` picks δ and
    * the offsets.
    */
  private val readGen: Gen[(Int, Int)] = for {
    kind <- Gen.choose(0, 4)
    x <- Gen.choose(0, 1 << 16)
  } yield (kind, x)

  test("property: a kept DC read at one cell per insert answers as TC and a fresh DC, and ends equal to a fresh one") {
    // inserts after which the read left some rows stale for the next one
    var carried = 0
    checkProp(Prop.forAllNoShrink(caseGen, Gen.listOfN(24, readGen)) { case ((seed, nV, pEdge, horizon, ops), reads) =>
      val g = TestGraphs.random(seed, nV = nV, pEdge = pEdge, horizon = horizon)
      val ts0 = DriverTriangles.enumerate(g)
      val st = DynamicState.fromGraph(g, ts0, MBA.build(ts0))
      val tc = TCIndex.fromTable(st.tableView)
      val dc = DCIndex.fromTable(st.tableView)
      val ctx = s"seed=$seed nV=$nV pEdge=$pEdge horizon=$horizon ops=$ops reads=$reads"
      var i = 0
      for (op <- ops) {
        val (xs, rejected) = interactions(st, op)
        if (!rejected) for ((u, v, t) <- xs) {
          val rep = IndexMaintenance.insert(st, u, v, t)
          val table = st.tableView
          val (kind, x) = reads(i % reads.length)
          // k = 3, k = kMax, k above every level this insert changed (past
          // kMax if it changed the top), or any k from 2 to kMax + 1
          val k = kind match {
            case 0 => 3
            case 1 => table.kMax
            case 2 | 3 => math.min(table.kMax + 1, rep.changedLevels.maxOption.getOrElse(2) + 1 + x % 3)
            case _ => 2 + x % table.kMax
          }
          val d = if (x % 5 == 0) table.deltaMax else (x.toLong % (table.deltaMax + 2L)).toInt
          val fresh = DCIndex.fromTable(table.copy())
          val got = dc.query(k, d).sorted.toSeq
          val at = s"$ctx: insert $i ($u, $v, $t), read (k=$k, δ=$d)"
          assert(got == tc.query(k, d).sorted.toSeq, s"$at: the kept DC answered unlike TC")
          assert(got == fresh.query(k, d).sorted.toSeq, s"$at: the kept DC answered unlike a fresh DC")
          if (dc.owed._1 > 0) carried += 1
          i += 1
        }
      }
      Canonical.same(Canonical.dc(dc), Canonical.dc(DCIndex.fromTable(st.tableView.copy())), s"$ctx: the kept DC diverged from a fresh one")
      true
    }, minTests = 300)
    assert(carried > 0, "no read left a stale row for the next insert")
  }
}

object InsertStreamSpec {

  /** One step of a stream: `kind` picks what it inserts, and `a`, `b`, `c`
    * pick the vertices, the edge and the timestamp among the state's
    * current ones, so a stream is drawn before the state it runs on.
    */
  final case class Op(kind: Int, a: Int, b: Int, c: Int)
}
