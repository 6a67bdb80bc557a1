package repro.core

import org.scalatest.Assertions._
import repro.core.maintenance.DynamicState

/** Canonical forms of the table's level orders and of both indexes, for
  * oracles that compare a maintained structure with one built fresh. The
  * edges of equal span may sit in any order within a block, and an IES in
  * any order, so both compare as sets; everything else compares exactly.
  */
object Canonical {

  /** Each `D_k` block of a level order as (span, offset, edges). */
  private def blocks(lv: KSpanTable#Level): Seq[(Int, Int, Set[Int])] =
    (0 until lv.blocks).map(b => (lv.span(b), lv.start(b), (lv.start(b) until lv.end(b)).map(lv.edge).toSet))

  /** Per level k: `|E_k|` and its blocks. */
  def levels(t: KSpanTable): Seq[(Int, Seq[(Int, Int, Set[Int])])] =
    (3 to t.kMax).map { k => val lv = t.level(k); (lv.size, blocks(lv)) }

  /** The reference that [[levels]] must equal, from `trn` and `spans`
    * alone, never reading a level order: level k holds the edges of
    * `trn ≥ k`, one block per distinct span of theirs, descending, each at
    * the count of the edges of larger span.
    */
  def levelsOf(t: KSpanTable): Seq[(Int, Seq[(Int, Int, Set[Int])])] = {
    val top = (0 until t.m).foldLeft(2)((top, e) => math.max(top, t.trn(e)))
    // bySpan(k − 3): span -> the edges of that span at level k
    val bySpan = Array.fill(top - 2)(scala.collection.mutable.Map.empty[Int, Set[Int]])
    for (e <- 0 until t.m; k <- 3 to t.trn(e)) {
      val d = t.spans(e)(k - 3)
      bySpan(k - 3)(d) = bySpan(k - 3).getOrElse(d, Set.empty[Int]) + e
    }
    bySpan.toSeq.map { level =>
      val spans = level.keys.toSeq.sorted.reverse
      val offsets = spans.scanLeft(0)((off, d) => off + level(d).size)
      (offsets.last, spans.zip(offsets).map { case (d, off) => (d, off, level(d)) })
    }
  }

  /** `m` and, per row `I_k`: k, `|E_k|` and its blocks. */
  def tc(idx: TCIndex): (Int, Seq[(Int, Int, Seq[(Int, Int, Set[Int])])]) =
    (idx.m, (3 to idx.kMax).map { k => val r = idx.row(k); (k, r.size, blocks(r)) })

  /** The kept (k, δ) nodes with their parent's (k, δ) and their IES as a
    * set, the root, and the lookup runs with their node's (k, δ).
    */
  def dc(idx: DCIndex): (Int, Map[(Int, Int), (Option[(Int, Int)], Set[Int])], (Int, Int), Seq[Seq[(Int, (Int, Int))]]) =
    dc(GridDC.of(idx))

  /** The same canonical form of a tree from the grid reference. */
  def dc(idx: GridDC.Result): (Int, Map[(Int, Int), (Option[(Int, Int)], Set[Int])], (Int, Int), Seq[Seq[(Int, (Int, Int))]]) = {
    def cell(i: Int) = (idx.nodes(i).k, idx.nodes(i).delta)
    val nodes = idx.nodes.indices.map { i =>
      val n = idx.nodes(i)
      cell(i) -> ((if (n.parent < 0) None else Some(cell(n.parent))), n.ies.toSet)
    }.toMap
    assert(nodes.size == idx.nodes.length, "two kept nodes share a (k, δ) cell")
    (idx.m, nodes, cell(idx.rootId), idx.runStarts.indices.map(r => idx.runStarts(r).toSeq.zip(idx.runNodes(r).map(cell))))
  }

  /** `a == b`, failing with `clue` alone: the canonical forms and answers
    * of a bench-scale graph are too large to print in a failure message.
    */
  def same[A](a: A, b: A, clue: => String): Unit = if (a != b) fail(clue)

  /** After an insertion: every level order of the live table equals the
    * reference [[levelsOf]], and so does every level order of `fresh`, the
    * caller's MBA rebuild from `snapshotTriangles`, whose spans the live
    * table must hold; `tc` and `dc`, a TC and a DC over the live table
    * taken before the insertion, equal `TCIndex.fromTable(fresh)` and
    * `DCIndex.fromTable(fresh)` canonically and answer as they do on a
    * (k, δ) grid; and the DC over `fresh` equals the grid reference
    * [[GridDC]].
    */
  def assertFresh(st: DynamicState, fresh: KSpanTable, tc: TCIndex, dc: DCIndex, ctx: String): Unit = {
    val live = levels(st.tableView)
    same(live, levelsOf(st.tableView), s"$ctx: live level orders diverged from the reference")
    same(levels(fresh), levelsOf(fresh), s"$ctx: the rebuild's level orders diverged from the reference")
    same(live, levels(fresh), s"$ctx: live level orders diverged from the rebuild's")
    val exact = TCIndex.fromTable(fresh)
    same(this.tc(tc), this.tc(exact), s"$ctx: TC over the live table diverged from a TC over the rebuild")
    val exactDc = DCIndex.fromTable(fresh)
    for (k <- 2 to fresh.kMax + 1; d <- Seq(0, fresh.deltaMax / 3, fresh.deltaMax)) {
      same(tc.query(k, d).sorted.toSeq, exact.query(k, d).sorted.toSeq,
        s"$ctx: TC over the live table answered (k=$k, δ=$d) unlike a TC over the rebuild")
      same(dc.query(k, d).sorted.toSeq, exactDc.query(k, d).sorted.toSeq,
        s"$ctx: DC over the live table answered (k=$k, δ=$d) unlike a DC over the rebuild")
    }
    same(this.dc(dc), this.dc(exactDc), s"$ctx: DC over the live table diverged from a DC over the rebuild")
    same(this.dc(exactDc), this.dc(GridDC.derive(fresh)), s"$ctx: DC over the rebuild diverged from the grid reference")
  }
}
