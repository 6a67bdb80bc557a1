package repro.core

/** Temporal Containment Index (§IV-A): a read-only view of the level orders
  * of a [[KSpanTable]]. Row `I_k = (E_k, D_k)` for `3 ≤ k ≤ kmax` is the
  * table's [[KSpanTable#Level]] k, read in place (`k ≤ 2` is the whole graph
  * and is not stored). The view holds no edge or directory array of its
  * own: it answers from the table as the table stands at the call, so a TC
  * over a table that §VI maintenance repairs is current after every
  * insertion, and `m`, `kMax` and `deltaMax` follow the table.
  *
  * Size `O(kmax · |E| + Σ_k |D_k|)`, within Theorem 1's
  * `O(kmax · (|E| + δmax))`: each `D_k` holds one key per distinct span of
  * its level, never `δmax + 1`. A query costs `O(log |D_k| + |T_{k,δ}|)`
  * (Theorem 2).
  */
final class TCIndex private (table: KSpanTable) {
  def m: Int = table.m
  def kMax: Int = table.kMax
  def deltaMax: Int = table.deltaMax

  /** Row `I_k`, `3 ≤ k ≤ kMax`: the table's level order, not a copy. */
  private[repro] def row(k: Int): KSpanTable#Level = table.level(k)

  /** Edge ids of `T_{k,δ}` (ascending order not guaranteed): one binary
    * search of `D_k`, then one copy of the suffix of `E_k`.
    */
  def query(k: Int, delta: Int): Array[Int] =
    if (k <= 2) Array.range(0, m)
    else if (k > kMax) Array.emptyIntArray
    else row(k).atMost(delta)

  private def rows: Iterator[KSpanTable#Level] = (3 to kMax).iterator.map(row)

  /** Total number of edge entries `Σ_k |E_k|` (Table II "total edge #"). */
  def totalEdgeEntries: Long = rows.map(_.size.toLong).sum

  private def directoryEntries: Long = rows.map(_.blocks.toLong).sum

  /** Mean number of directory entries (unique k-spans) per `D_k`
    * (Table II "avg. entry (k-span) #").
    */
  def avgEntryCount: Double =
    if (kMax < 3) 0.0 else directoryEntries.toDouble / (kMax - 2)

  /** Approximate serialized size in bytes: 8 per edge entry (two int
    * endpoints) + 8 per directory entry (span, offset).
    */
  def approxBytes: Long = totalEdgeEntries * 8L + directoryEntries * 8L
}

object TCIndex {

  /** A view of `t`'s level orders, which are sorted here if no read has
    * sorted them yet, `O(Σ_e trn(e) + δmax)`; a later call on the same table
    * costs `O(1)`.
    */
  def fromTable(t: KSpanTable): TCIndex = new TCIndex(t.sortedLevels())

  /** The same view as [[fromTable]]: the table's level orders already hold
    * every change an insertion made, so no row is copied and `prev` and
    * `levels` are unused. Kept, with this signature, only because the
    * benchmark harness in `perfbench/` calls it after each insertion.
    */
  def refreshRows(prev: TCIndex, t: KSpanTable, levels: Iterable[Int]): TCIndex = fromTable(t)
}
