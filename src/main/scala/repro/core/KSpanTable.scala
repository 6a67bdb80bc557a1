package repro.core

/** The complete answer substrate of both indexes: for every edge `e` and
  * every `3 ≤ k ≤ trn(e)`, the k-span of Definition 5 — the smallest δ such
  * that the (k, δ)-truss contains `e`.
  *
  * Membership test: `e ∈ T_{k,δ}` iff `k ≤ 2` (the (2,δ)-truss is the whole
  * graph) or `trn(e) ≥ k ∧ kspan(e,k) ≤ δ`. TC-Index and DC-Index are two
  * losslessly-compressed serializations of this table.
  *
  * The one k-span store of the static build and of §VI maintenance: MBA and
  * DBA fill a table from [[KSpanTable.allocate]], and the maintenance state
  * grows and repairs its own [[copy]] in place through the `private[repro]`
  * mutators. Only this class knows the row layout: the k-span of `e` at
  * level k sits in slot `k − 3` of row `e`, a row has `trn(e) − 2` slots,
  * and a slot no algorithm has written yet holds −1.
  *
  * Only ids `< m` are live: a table that grows by [[appendEdge]] doubles its
  * arrays, so `trn` and `spans` may be longer than `m`. A table built from
  * arrays, by [[allocate]] or by [[copy]] has exact-length arrays. `kMax`
  * and `deltaMax` are fields that the mutators keep current.
  */
final class KSpanTable private (
    private var trnBuf: Array[Int],
    private var rows: Array[Array[Int]],
    private var live: Int,
    private var dMax: Int,
    private var kTop: Int,
) {

  /** @param trn      static trussness of each edge (δ = δmax column)
    * @param spans    the k-span rows, one per edge
    * @param deltaMax largest triangle mts of the graph, or an upper bound of
    *                 it on a maintained table (mts only shrinks, so the bound
    *                 loosens directory sizing, never correctness)
    */
  def this(trn: Array[Int], spans: Array[Array[Int]], deltaMax: Int) = {
    this(trn, spans, trn.length, deltaMax, if (trn.isEmpty) 2 else math.max(2, trn.max))
    require(trn.length == spans.length, "one k-span row per edge")
  }

  def m: Int = live
  def trn: Array[Int] = trnBuf
  def spans: Array[Array[Int]] = rows
  def kMax: Int = kTop
  def deltaMax: Int = dMax

  def span(e: Int, k: Int): Int = rows(e)(k - 3)

  def inTruss(e: Int, k: Int, delta: Int): Boolean =
    k <= 2 || (trn(e) >= k && span(e, k) <= delta)

  /** Edge set of `T_{k,δ}` straight from the table (reference for tests and
    * the source both index builders consume). Sorted ascending.
    */
  def trussEdges(k: Int, delta: Int): Array[Int] =
    (0 until m).filter(e => inTruss(e, k, delta)).toArray

  /** `Σ_{k,δ} |T_{k,δ}|` — the size of storing every truss explicitly; the
    * denominator of the paper's Table II compression ratio.
    */
  def totalTrussCells: Long = {
    var sum = 0L
    var e = 0
    while (e < m) {
      var k = 3
      while (k <= trn(e)) {
        // e appears in T_{k,δ} for every δ ∈ [kspan, δmax]
        sum += (deltaMax - span(e, k) + 1).toLong
        k += 1
      }
      e += 1
    }
    sum
  }

  // --- mutators of the build and of §VI maintenance -----------------------

  private[repro] def setSpan(e: Int, k: Int, d: Int): Unit = rows(e)(k - 3) = d

  /** Append a new edge with `trn = 2` and an empty row. */
  private[repro] def appendEdge(): Unit = {
    if (live == trnBuf.length) {
      trnBuf = java.util.Arrays.copyOf(trnBuf, math.max(16, 2 * live))
      rows = java.util.Arrays.copyOf(rows, trnBuf.length)
    }
    trnBuf(live) = 2
    rows(live) = Array.emptyIntArray
    live += 1
  }

  /** Grow the row of `e` to its `trn(e) − 2` slots after a trussness
    * increase, with the new top slots set to `init`, and raise `kMax`.
    */
  private[repro] def growRow(e: Int, init: Int): Unit = {
    val want = trnBuf(e) - 2
    val cur = rows(e)
    if (cur.length < want) {
      val nu = java.util.Arrays.copyOf(cur, want)
      java.util.Arrays.fill(nu, cur.length, want, init)
      rows(e) = nu
    }
    if (trnBuf(e) > kTop) kTop = trnBuf(e)
  }

  private[repro] def raiseDeltaMax(d: Int): Unit = if (d > dMax) dMax = d

  /** An independent, exact-length copy of the live edges. */
  private[repro] def copy(deltaMax: Int = dMax): KSpanTable =
    new KSpanTable(java.util.Arrays.copyOf(trnBuf, live), Array.tabulate(live)(rows(_).clone()), deltaMax)

  override def equals(o: Any): Boolean = o match {
    case other: KSpanTable =>
      m == other.m && deltaMax == other.deltaMax &&
        java.util.Arrays.equals(trnBuf, 0, m, other.trn, 0, m) &&
        (0 until m).forall(e => java.util.Arrays.equals(rows(e), other.spans(e)))
    case _ => false
  }
  override def hashCode(): Int = (m, deltaMax).##
}

object KSpanTable {

  /** A table for the trussness `trn`, every row sized `trn(e) − 2` and
    * unset, for a builder to fill through `setSpan`.
    */
  private[repro] def allocate(trn: Array[Int], deltaMax: Int): KSpanTable =
    new KSpanTable(trn, Array.tabulate(trn.length)(e => Array.fill(math.max(0, trn(e) - 2))(-1)), deltaMax)
}
