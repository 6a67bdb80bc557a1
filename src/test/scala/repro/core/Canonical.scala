package repro.core

import org.scalatest.Assertions._
import repro.core.maintenance.DynamicState

/** Canonical forms of the table's level orders and of both indexes, for
  * oracles that compare a maintained structure with one built fresh. The
  * edges of equal span may sit in any order within a block, and an IES in
  * any order, so both compare as sets; everything else compares exactly.
  */
object Canonical {

  /** Per level k: `|E_k|` and each `D_k` block as (span, offset, edges). */
  def levels(t: KSpanTable): Seq[(Int, Seq[(Int, Int, Set[Int])])] =
    (3 to t.kMax).map { k =>
      val lv = t.level(k)
      (lv.size, (0 until lv.blocks).map(b => (lv.span(b), lv.start(b), (lv.start(b) until lv.end(b)).map(lv.edge).toSet)))
    }

  /** Per row: k, `|E_k|` and each `D_k` block as (span, offset, edges). */
  def tc(idx: TCIndex): (Int, Seq[(Int, Int, Seq[(Int, Int, Set[Int])])]) =
    (idx.m, idx.rows.toSeq.map { r =>
      val ends = r.offsets.drop(1) :+ r.edges.length
      (r.k, r.edges.length, r.spans.indices.map(i => (r.spans(i), r.offsets(i), r.edges.slice(r.offsets(i), ends(i)).toSet)))
    })

  /** The kept (k, δ) nodes with their parent's (k, δ) and their IES as a
    * set, the root, and the lookup runs with their node's (k, δ).
    */
  def dc(idx: DCIndex): (Int, Map[(Int, Int), (Option[(Int, Int)], Set[Int])], (Int, Int), Seq[Seq[(Int, (Int, Int))]]) = {
    def cell(i: Int) = (idx.nodes(i).k, idx.nodes(i).delta)
    val nodes = idx.nodes.indices.map { i =>
      val n = idx.nodes(i)
      cell(i) -> ((if (n.parent < 0) None else Some(cell(n.parent))), n.ies.toSet)
    }.toMap
    assert(nodes.size == idx.nodes.length, "two kept nodes share a (k, δ) cell")
    (idx.m, nodes, cell(idx.rootId), idx.runStarts.indices.map(r => idx.runStarts(r).toSeq.zip(idx.runNodes(r).map(cell))))
  }

  /** After an insertion: every level order of the live table equals a
    * fresh counting sort of `snapshotTable`, the maintained `tc` equals
    * `TCIndex.fromTable(snapshotTable)` row by row, and DC over the live
    * table equals DC over `snapshotTable`.
    */
  def assertFresh(st: DynamicState, tc: TCIndex, ctx: String): Unit = {
    val snap = st.snapshotTable
    assert(levels(st.tableView) == levels(snap), s"$ctx: live level orders diverged from a fresh sort")
    assert(this.tc(tc) == this.tc(TCIndex.fromTable(snap)), s"$ctx: maintained TC diverged from a fresh TC")
    assert(dc(DCIndex.fromTable(st.tableView)) == dc(DCIndex.fromTable(snap)),
      s"$ctx: DC over the live table diverged from a fresh DC")
  }
}
