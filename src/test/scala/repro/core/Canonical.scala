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

  /** `m` and, per row `I_k`: k, `|E_k|` and its blocks. */
  def tc(idx: TCIndex): (Int, Seq[(Int, Int, Seq[(Int, Int, Set[Int])])]) =
    (idx.m, (3 to idx.kMax).map { k => val r = idx.row(k); (k, r.size, blocks(r)) })

  /** The kept (k, δ) nodes with their parent's (k, δ) and their IES as a
    * set, the root, and the lookup runs with their node's (k, δ).
    */
  def dc(idx: DCIndex): (Int, Map[(Int, Int), (Option[(Int, Int)], Set[Int])], (Int, Int), Seq[Seq[(Int, (Int, Int))]]) =
    dc(GridDC.Result(idx.m, idx.nodes, idx.rootId, idx.runStarts, idx.runNodes))

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

  /** After an insertion: every level order of the live table equals a
    * fresh counting sort of `snapshotTable`; `tc` and `dc`, a TC and a DC
    * over the live table taken before the insertion, equal
    * `TCIndex.fromTable(snapshotTable)` and `DCIndex.fromTable(snapshotTable)`
    * canonically and answer as they do on a (k, δ) grid; and the DC over
    * `snapshotTable` equals the grid reference [[GridDC]].
    */
  def assertFresh(st: DynamicState, tc: TCIndex, dc: DCIndex, ctx: String): Unit = {
    val snap = st.snapshotTable
    val exact = TCIndex.fromTable(snap)
    assert(levels(st.tableView) == levels(snap), s"$ctx: live level orders diverged from a fresh sort")
    assert(this.tc(tc) == this.tc(exact), s"$ctx: TC over the live table diverged from a TC over the snapshot")
    val exactDc = DCIndex.fromTable(snap)
    for (k <- 2 to snap.kMax + 1; d <- Seq(0, snap.deltaMax / 3, snap.deltaMax)) {
      assert(tc.query(k, d).sorted.toSeq == exact.query(k, d).sorted.toSeq,
        s"$ctx: TC over the live table answered (k=$k, δ=$d) unlike a TC over the snapshot")
      assert(dc.query(k, d).sorted.toSeq == exactDc.query(k, d).sorted.toSeq,
        s"$ctx: DC over the live table answered (k=$k, δ=$d) unlike a DC over the snapshot")
    }
    assert(this.dc(dc) == this.dc(exactDc), s"$ctx: DC over the live table diverged from a DC over the snapshot")
    assert(this.dc(exactDc) == this.dc(GridDC.derive(snap)), s"$ctx: DC over the snapshot diverged from the grid reference")
  }
}
