package repro.core

/** One map structure `I_k = (E_k, D_k)` of TC-Index (§IV-A): the edges of
  * the static k-truss in descending k-span order, plus the directory of
  * unique k-spans with the offset of the first edge carrying each.
  */
final class TCRow(
    val k: Int,
    val edges: Array[Int],   // E_k: edge ids, descending k-span
    val spans: Array[Int],   // D_k keys: unique k-spans, descending
    val offsets: Array[Int], // D_k values: offset of first edge with spans(i)
) {
  /** Suffix of `E_k` whose k-span ≤ δ — the edge set of `T_{k,δ}`.
    * Binary search over `D_k` then a single scan: `O(log δmax + |T_{k,δ}|)`
    * (Theorem 2).
    */
  def query(delta: Int): Array[Int] = {
    // smallest index with spans(i) <= delta (spans descending)
    var lo = 0; var hi = spans.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (spans(mid) <= delta) hi = mid else lo = mid + 1
    }
    if (lo == spans.length) Array.emptyIntArray
    else java.util.Arrays.copyOfRange(edges, offsets(lo), edges.length)
  }
}

/** Temporal Containment Index (§IV-A): one [[TCRow]] per `3 ≤ k ≤ kmax`
  * (`k ≤ 2` is the whole graph and is not stored). Size
  * `O(kmax · (|E| + δmax))` (Theorem 1).
  */
final class TCIndex(val rows: Array[TCRow], val m: Int, val deltaMax: Int) {
  def kMax: Int = rows.length + 2

  /** Edge ids of `T_{k,δ}` (ascending order not guaranteed). */
  def query(k: Int, delta: Int): Array[Int] =
    if (k <= 2) Array.range(0, m)
    else if (k > kMax) Array.emptyIntArray
    else rows(k - 3).query(delta)

  /** Total number of edge entries `Σ_k |E_k|` (Table II "total edge #"). */
  def totalEdgeEntries: Long = rows.iterator.map(_.edges.length.toLong).sum

  /** Mean number of directory entries (unique k-spans) per `D_k`
    * (Table II "avg. entry (k-span) #").
    */
  def avgEntryCount: Double =
    if (rows.isEmpty) 0.0 else rows.iterator.map(_.spans.length.toLong).sum.toDouble / rows.length

  /** Approximate serialized size in bytes: 8 per edge entry (two int
    * endpoints) + 8 per directory entry (span, offset).
    */
  def approxBytes: Long =
    totalEdgeEntries * 8L + rows.iterator.map(_.spans.length.toLong).sum * 8L
}

object TCIndex {

  /** Copy level `k`'s order and directory out of the table, which keeps
    * them sorted: `O(|E_k| + |D_k|)`.
    */
  def buildRow(t: KSpanTable, k: Int): TCRow = {
    val lv = t.level(k)
    new TCRow(k, lv.edges, lv.spans, lv.starts)
  }

  def fromTable(t: KSpanTable): TCIndex =
    new TCIndex((3 to t.kMax).map(buildRow(t, _)).toArray, t.m, t.deltaMax)

  /** Incremental structural update (the paper's "change the positions of the
    * edges", which the table's level orders already did): copy only the
    * `I_k` rows of the levels an insertion touched, and of levels above
    * `prev.kMax`, sharing every other row with the previous index.
    * `O(Σ_{changed k} |E_k| + |D_k|)`.
    */
  def refreshRows(prev: TCIndex, t: KSpanTable, levels: Iterable[Int]): TCIndex = {
    val changed = levels.toSet
    val rows = Array.tabulate(t.kMax - 2) { i =>
      if (i < prev.rows.length && !changed(i + 3)) prev.rows(i) else buildRow(t, i + 3)
    }
    new TCIndex(rows, t.m, t.deltaMax)
  }
}
