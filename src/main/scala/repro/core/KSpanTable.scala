package repro.core

import repro.triangles.TriangleSet

/** The complete answer substrate of both indexes: for every edge `e` and
  * every `3 ≤ k ≤ trn(e)`, the k-span of Definition 5 — the smallest δ such
  * that the (k, δ)-truss contains `e`.
  *
  * Membership test: `e ∈ T_{k,δ}` iff `k ≤ 2` (the (2,δ)-truss is the whole
  * graph) or `trn(e) ≥ k ∧ kspan(e,k) ≤ δ`. TC-Index is a read-only view
  * of this table's level orders, and DC-Index a lossless compression
  * derived from them.
  *
  * The one k-span store of the static build and of §VI maintenance: MBA and
  * DBA fill a table from [[KSpanTable.allocate]], and the maintenance state
  * grows and repairs its own [[copy]] in place through the `private[repro]`
  * mutators. Only this class knows the row layout: the k-span of `e` at
  * level k sits in slot `k − 3` of row `e`, a row has `trn(e) − 2` slots,
  * and a slot no algorithm has written yet holds −1.
  *
  * The table also keeps every level k in TC order, as a [[Level]]: `E_k`,
  * the edges with `trn ≥ k` in descending k-span, and its `D_k` directory
  * of distinct spans and block offsets. The orders are sorted on the first
  * read of a [[level]], by one stable sort of all `Σ_e (trn(e) − 2)`
  * entries in descending span ([[repro.triangles.TriangleSet.descending]],
  * a radix sort with one pass per 8-bit digit of the largest span and no
  * array sized by δmax) followed by a stable pass that deals them out to
  * their levels. From then on
  * the mutators keep them current with the bin-sort moves of Batagelj and
  * Zaveršnik (2003): a changed entry crosses the block boundaries between
  * its old and its new span, one edge moved per boundary, `O(blocks
  * crossed)` plus `O(|D_k|)` when a block appears or empties; a new slot
  * enters its level at the tail and moves up the same way. The table keeps
  * no index of an entry's position, which would cost an int per entry and
  * a row per edge: a changed entry is found by a scan of its old block, so
  * a move also costs `O(|block|)`. A directory holds one key per distinct
  * span of its level, never `δmax + 1`.
  *
  * Only ids `< m` are live: a table that grows by [[appendEdge]] doubles its
  * arrays, so `trn` and `spans` may be longer than `m`. A table built from
  * arrays, by [[allocate]] or by [[copy]] has exact-length arrays. `kMax`
  * and `deltaMax` are fields that the mutators keep current, and every
  * mutator call adds one to [[mutations]], so a reader that derived
  * something from the level orders can tell that it is stale.
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
    *                 it on a maintained table (mts only shrinks, so the
    *                 bound may be loose); nothing is sized by it
    */
  def this(trn: Array[Int], spans: Array[Array[Int]], deltaMax: Int) = {
    this(trn, spans, trn.length, deltaMax, if (trn.isEmpty) 2 else math.max(2, trn.max))
    require(trn.length == spans.length, "one k-span row per edge")
  }

  // the level orders, slot k − 3; null until the first read of a level
  private var levels: Array[Level] = null
  private var moveNs = 0L
  private var mods = 0L

  def m: Int = live
  def trn: Array[Int] = trnBuf
  def spans: Array[Array[Int]] = rows
  def kMax: Int = kTop
  def deltaMax: Int = dMax

  def span(e: Int, k: Int): Int = rows(e)(k - 3)

  def inTruss(e: Int, k: Int, delta: Int): Boolean =
    k <= 2 || (trn(e) >= k && span(e, k) <= delta)

  /** Edge set of `T_{k,δ}` by a scan of every row, `O(m)`: the reference
    * that tests hold the index queries to. Sorted ascending.
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
        sum += deltaMax.toLong - span(e, k) + 1
        k += 1
      }
      e += 1
    }
    sum
  }

  /** This table, with its level orders sorted if no read has sorted them
    * yet.
    */
  private[repro] def sortedLevels(): KSpanTable = {
    if (levels == null) sortLevels()
    this
  }

  /** The TC order of level `3 ≤ k ≤ kMax`, sorted on the first call. */
  private[repro] def level(k: Int): Level = {
    sortedLevels()
    levels(k - 3)
  }

  /** Nanoseconds spent in level-order moves since the table was made. */
  private[repro] def orderMoveNanos: Long = moveNs

  /** Mutator calls since the table was made. */
  private[repro] def mutations: Long = mods

  // --- mutators of the build and of §VI maintenance -----------------------

  /** Set the k-span of `e` at level `k` to `d`; once the levels are
    * sorted, `e` moves to the block of `d` in level k's order.
    */
  private[repro] def setSpan(e: Int, k: Int, d: Int): Unit = {
    val old = rows(e)(k - 3)
    rows(e)(k - 3) = d
    mods += 1
    if (levels != null && d != old) {
      val t0 = System.nanoTime()
      levels(k - 3).move(e, old, d)
      moveNs += System.nanoTime() - t0
    }
  }

  /** Append a new edge with `trn = 2` and an empty row. */
  private[repro] def appendEdge(): Unit = {
    if (live == trnBuf.length) {
      trnBuf = java.util.Arrays.copyOf(trnBuf, math.max(16, 2 * live))
      rows = java.util.Arrays.copyOf(rows, trnBuf.length)
    }
    trnBuf(live) = 2
    rows(live) = Array.emptyIntArray
    live += 1
    mods += 1
  }

  /** Grow the row of `e` to its `trn(e) − 2` slots after a trussness
    * increase, with the new top slots set to `init`, and raise `kMax`. Once
    * the levels are sorted, `e` enters the order of each new slot's level,
    * a level above `kMax` starting a new order.
    */
  private[repro] def growRow(e: Int, init: Int): Unit = {
    val want = trnBuf(e) - 2
    val cur = rows(e)
    mods += 1
    if (cur.length < want) {
      val nu = java.util.Arrays.copyOf(cur, want)
      java.util.Arrays.fill(nu, cur.length, want, init)
      rows(e) = nu
      if (levels != null) {
        val t0 = System.nanoTime()
        if (levels.length < want) {
          val n0 = levels.length
          levels = java.util.Arrays.copyOf(levels, want)
          for (i <- n0 until want) levels(i) = new Level(0)
        }
        for (i <- cur.length until want) levels(i).add(e, init)
        moveNs += System.nanoTime() - t0
      }
    }
    if (trnBuf(e) > kTop) kTop = trnBuf(e)
  }

  private[repro] def raiseDeltaMax(d: Int): Unit = if (d > dMax) { dMax = d; mods += 1 }

  /** An independent, exact-length copy of the live edges. Its level orders
    * are not copied: it sorts its own on the first read.
    */
  private[repro] def copy(deltaMax: Int = dMax): KSpanTable =
    new KSpanTable(java.util.Arrays.copyOf(trnBuf, live), Array.tabulate(live)(rows(_).clone()), deltaMax)

  /** Equal k-spans; the level orders, whose ties may sit in any order
    * within a block, are not compared.
    */
  override def equals(o: Any): Boolean = o match {
    case other: KSpanTable =>
      m == other.m && deltaMax == other.deltaMax &&
        java.util.Arrays.equals(trnBuf, 0, m, other.trn, 0, m) &&
        (0 until m).forall(e => java.util.Arrays.equals(rows(e), other.spans(e)))
    case _ => false
  }
  override def hashCode(): Int = (m, deltaMax).##

  // --- the level orders ---------------------------------------------------

  /** Every entry by descending span, ties in `(e, slot)` order, through
    * [[TriangleSet.descending]], then dealt out to its level in that order.
    */
  private def sortLevels(): Unit = {
    val size = new Array[Int](kTop - 2)
    var n = 0
    var e = 0
    while (e < live) { n += math.max(0, trnBuf(e) - 2); e += 1 }
    // entry p, in (e, slot) order: its span and (e << 32 | slot)
    val span = new Array[Int](n)
    val entry = new Array[Long](n)
    n = 0
    e = 0
    while (e < live) {
      val row = rows(e)
      val slots = trnBuf(e) - 2
      var i = 0
      while (i < slots) { span(n) = row(i); entry(n) = e.toLong << 32 | i; size(i) += 1; n += 1; i += 1 }
      e += 1
    }
    levels = size.map(new Level(_))
    val order = TriangleSet.descending(span)
    var q = 0
    while (q < n) { val p = order(q); levels(entry(p).toInt).add((entry(p) >>> 32).toInt, span(p)); q += 1 }
  }

  /** The TC order `I_k = (E_k, D_k)` of one level: the first `size`
    * entries of the edge array are `E_k` in descending k-span, and block
    * `b < blocks` holds the edges of span `span(b)` (descending in `b`) at
    * positions `[start(b), end(b))`. Edges of equal span sit in no
    * particular order. Readers only read; the table moves the entries.
    */
  final class Level private[KSpanTable] (capacity: Int) {
    private var es = new Array[Int](capacity)
    private var n = 0
    private var keys = new Array[Int](4) // D_k: the distinct spans, descending
    private var offs = new Array[Int](4) // D_k: the first position of each
    private var nb = 0

    def size: Int = n
    def blocks: Int = nb
    def edge(p: Int): Int = es(p)
    def span(b: Int): Int = keys(b)
    def start(b: Int): Int = offs(b)
    def end(b: Int): Int = if (b + 1 < nb) offs(b + 1) else n

    /** The array whose first `size` entries are `E_k`, not a copy: valid
      * until the table's next mutation.
      */
    private[core] def edgeArray: Array[Int] = es

    /** A copy of the edges of span exactly `d`. */
    def spanEdges(d: Int): Array[Int] = {
      val b = block(d)
      if (b < 0) Array.emptyIntArray else java.util.Arrays.copyOfRange(es, offs(b), end(b))
    }

    /** A copy of the suffix of `E_k` whose spans are ≤ `d`. */
    def atMost(d: Int): Array[Int] = java.util.Arrays.copyOfRange(es, firstAtMost(d), n)

    /** The position of the first edge of span ≤ `d`, or `size` if none. */
    def firstAtMost(d: Int): Int = {
      var lo = 0; var hi = nb
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (keys(mid) <= d) hi = mid else lo = mid + 1
      }
      if (lo == nb) n else offs(lo)
    }

    /** The block of span `d`, or −1. */
    private def block(d: Int): Int = {
      var lo = 0; var hi = nb - 1
      while (lo <= hi) {
        val mid = (lo + hi) >>> 1
        if (keys(mid) == d) return mid
        if (keys(mid) > d) lo = mid + 1 else hi = mid - 1
      }
      -1
    }

    /** A new entry: `e` enters at the tail, inside the last block, and moves
      * up to span `d` from there. The build adds in descending span, so
      * its entries never move.
      */
    private[KSpanTable] def add(e: Int, d: Int): Unit = {
      if (n == es.length) es = java.util.Arrays.copyOf(es, n + (n >> 3) + 4)
      es(n) = e
      n += 1
      if (nb == 0 || keys(nb - 1) > d) insertBlock(nb, d, n - 1)
      else if (keys(nb - 1) < d) relocate(e, n - 1, nb - 1, d)
    }

    /** A changed entry: `e` moves from span `old` to span `nu`. */
    private[KSpanTable] def move(e: Int, old: Int, nu: Int): Unit = {
      val b = block(old)
      var p = offs(b)
      while (es(p) != e) p += 1
      relocate(e, p, b, nu)
    }

    /** Move `e`, at position `at` in block `from`, to the block of span
      * `nu`, which is made if missing; block `from` is dropped if `e` was
      * its last edge. The hole `e` leaves travels with it: at each boundary
      * crossed, the edge there fills the hole and leaves its own slot as
      * the next one.
      */
    private def relocate(e: Int, at: Int, from: Int, nu: Int): Unit = {
      var home = from
      var b = from
      var hole = at
      if (nu < keys(b)) {
        // toward the tail: e becomes the first edge of the next block
        while (b + 1 < nb && keys(b + 1) >= nu) {
          offs(b + 1) -= 1
          es(hole) = es(offs(b + 1)); hole = offs(b + 1)
          b += 1
        }
        if (keys(b) != nu) {
          val p = end(b) - 1
          es(hole) = es(p); hole = p
          insertBlock(b + 1, nu, hole)
        }
      } else {
        // toward the head: e becomes the last edge of the previous block
        while (b > 0 && keys(b - 1) <= nu) {
          es(hole) = es(offs(b)); hole = offs(b)
          offs(b) += 1
          b -= 1
        }
        if (keys(b) != nu) {
          val p = offs(b)
          es(hole) = es(p); hole = p
          offs(b) = p + 1
          insertBlock(b, nu, hole)
          home += 1
        }
      }
      es(hole) = e
      if (offs(home) == end(home)) removeBlock(home)
    }

    private def insertBlock(b: Int, d: Int, start: Int): Unit = {
      if (nb == keys.length) {
        keys = java.util.Arrays.copyOf(keys, 2 * nb)
        offs = java.util.Arrays.copyOf(offs, 2 * nb)
      }
      System.arraycopy(keys, b, keys, b + 1, nb - b)
      System.arraycopy(offs, b, offs, b + 1, nb - b)
      keys(b) = d
      offs(b) = start
      nb += 1
    }

    private def removeBlock(b: Int): Unit = {
      System.arraycopy(keys, b + 1, keys, b, nb - b - 1)
      System.arraycopy(offs, b + 1, offs, b, nb - b - 1)
      nb -= 1
    }
  }
}

object KSpanTable {

  /** A table for the trussness `trn`, every row sized `trn(e) − 2` and
    * unset, for a builder to fill through `setSpan`.
    */
  private[repro] def allocate(trn: Array[Int], deltaMax: Int): KSpanTable = {
    val rows = new Array[Array[Int]](trn.length)
    for (e <- trn.indices) { rows(e) = new Array[Int](math.max(0, trn(e) - 2)); java.util.Arrays.fill(rows(e), -1) }
    new KSpanTable(trn, rows, deltaMax)
  }
}
