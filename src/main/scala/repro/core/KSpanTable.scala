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
  * The one k-span store of the static build and of §VI maintenance: MBA's
  * and DBA's kernels fill a table from [[KSpanTable.allocate]] for each
  * part of a split build, [[KSpanTable.union]] makes the parts' tables
  * one, and the maintenance state grows and repairs its own [[copy]] in
  * place through the `private[repro]` mutators. Only this class knows the
  * row layout and writes trussness: the k-span of `e` at level k sits in
  * slot `k − 3` of row `e`, a row has `trn(e) − 2` slots, a slot no
  * algorithm has written yet holds −1, and `kMax` is the largest `trn`.
  * [[raise]] alone changes that shape.
  *
  * The table also keeps every level k in TC order, as a [[Level]]: `E_k`,
  * the edges with `trn ≥ k` in descending k-span, and its `D_k` directory
  * of distinct spans and block offsets. The orders exist from the moment
  * the table does: [[allocate]] makes each level with room for exactly its
  * `|E_k|` entries, and the first [[setSpan]] of a slot, the kernels' or
  * §VI's after a `raise`, enters its edge through `Level.add`, the one
  * way into a level, which `union` also calls, block by block. The
  * kernels write each level in descending span, as §V's sweeps settle the
  * k-spans, and `union` enters the parts' blocks in descending span, so
  * every entry of a build lands in place and no entry is sorted. From
  * then on the mutators keep the orders current with the bin-sort moves
  * of Batagelj and Zaveršnik (2003): a changed entry crosses the block
  * boundaries between its old and its new span, one edge moved per
  * boundary, `O(blocks crossed)` plus `O(|D_k|)` when a block appears or
  * empties; a new slot enters its level at the tail and moves up the same
  * way, once, to the span it is first given. Every such crossing goes
  * through `Level.relocate`, which alone reads the clock of
  * [[orderMoveNanos]]; builders never relocate. The table keeps no index
  * of an entry's position, which would cost an int per entry and a row per
  * edge: a changed entry is found by a scan of its old block, so a move
  * also costs `O(|block|)`. A directory holds one key per distinct span of
  * its level, never `δmax + 1`.
  *
  * Only ids `< m` are live: a table that grows by [[appendEdge]] doubles its
  * arrays, so `trn` and `spans` may be longer than `m`. A table made by
  * [[allocate]] or by [[copy]] has exact-length arrays. `kMax`
  * and `deltaMax` are fields that the mutators keep current, and every
  * mutator call adds one to [[mutations]], so a reader that derived
  * something from the level orders can tell that it is stale. Each level
  * also keeps the count at its last change (`Level.changedAt`): a
  * `setSpan` that enters an edge or changes a span stamps its level, so
  * the reader can tell which levels are stale. `raise`, `appendEdge` and
  * `raiseDeltaMax` enter, move and stamp nothing. The table holds its one
  * [[DCIndex]], which reads those stamps to derive again only the rows
  * they reach; a [[copy]] starts without one.
  */
final class KSpanTable private (
    private var trnBuf: Array[Int],
    private var rows: Array[Array[Int]],
    private var live: Int,
    private var dMax: Int,
    private var kTop: Int,
) {

  // the level orders, slot k − 3; set by the factory that made the table
  private var levels: Array[Level] = Array.empty
  private var moveNs = 0L
  private var mods = 0L
  // the table's one DC, made by DCIndex.fromTable; a copy has none
  private[core] var dc: DCIndex = _

  def m: Int = live
  def trn: Array[Int] = trnBuf
  def spans: Array[Array[Int]] = rows
  def kMax: Int = kTop
  def deltaMax: Int = dMax

  def span(e: Int, k: Int): Int = rows(e)(k - 3)

  def inTruss(e: Int, k: Int, delta: Int): Boolean =
    k <= 2 || (trn(e) >= k && span(e, k) <= delta)

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

  /** The TC order of level `3 ≤ k ≤ kMax`. */
  private[repro] def level(k: Int): Level = levels(k - 3)

  /** Nanoseconds that entries spent crossing blocks of the level orders
    * (`Level.relocate`) since the table was made.
    */
  private[repro] def orderMoveNanos: Long = moveNs

  /** Mutator calls since the table was made. */
  private[repro] def mutations: Long = mods

  // --- mutators of the build and of §VI maintenance -----------------------

  /** Set the k-span of `e` at level `k` to `d`: the first write of the
    * slot, unset since [[KSpanTable.allocate]] or [[raise]], enters `e`
    * into level k's order; a later one moves it to the block of `d`.
    */
  private[repro] def setSpan(e: Int, k: Int, d: Int): Unit = {
    val old = rows(e)(k - 3)
    rows(e)(k - 3) = d
    mods += 1
    if (old < 0) levels(k - 3).add(e, d)
    else if (d != old) levels(k - 3).move(e, old, d)
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

  /** Raise the trussness of `e` to `t`: its row grows to `t − 2` slots,
    * the new ones unset, and each level above `kMax` starts an empty
    * order. No level is entered or stamped: a new slot enters its level
    * on its first [[setSpan]], at the span it is given.
    */
  private[repro] def raise(e: Int, t: Int): Unit = {
    require(t >= trnBuf(e), s"trussness only rises: edge $e from ${trnBuf(e)} to $t")
    val cur = rows(e)
    rows(e) = java.util.Arrays.copyOf(cur, t - 2)
    java.util.Arrays.fill(rows(e), cur.length, t - 2, -1)
    trnBuf(e) = t
    mods += 1
    if (t > kTop) {
      levels = java.util.Arrays.copyOf(levels, t - 2)
      for (i <- kTop - 2 until t - 2) levels(i) = new Level(0)
      kTop = t
    }
  }

  private[repro] def raiseDeltaMax(d: Int): Unit = if (d > dMax) { dMax = d; mods += 1 }

  /** An independent, exact-length copy of the live edges, with clones of
    * the level orders.
    */
  private[repro] def copy(deltaMax: Int = dMax): KSpanTable = {
    val c = new KSpanTable(java.util.Arrays.copyOf(trnBuf, live), Array.tabulate(live)(rows(_).clone()), live, deltaMax, kTop)
    c.levels = levels.map(_.cloneFor(c))
    c
  }

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

  /** The TC order `I_k = (E_k, D_k)` of one level: the first `size`
    * entries of the edge array are `E_k` in descending k-span, and block
    * `b < blocks` holds the edges of span `span(b)` (descending in `b`) at
    * positions `[start(b), end(b))`. Edges of equal span sit in no
    * particular order. Readers only read; the table moves the entries.
    */
  final class Level private[KSpanTable] (
      private var es: Array[Int],
      private var n: Int,
      private var keys: Array[Int], // D_k: the distinct spans, descending
      private var offs: Array[Int], // D_k: the first position of each
      private var nb: Int,
  ) {
    /** An empty order with room for `capacity` entries. */
    private[KSpanTable] def this(capacity: Int) = this(new Array[Int](capacity), 0, new Array[Int](4), new Array[Int](4), 0)

    private var stamp = 0L

    /** The table's [[mutations]] count at this order's last change: an
      * `add` or a `move` stamps it.
      */
    private[core] def changedAt: Long = stamp

    /** A clone of this order, for the copy `t` of its table. */
    private[KSpanTable] def cloneFor(t: KSpanTable): t.Level = new t.Level(es.clone(), n, keys.clone(), offs.clone(), nb)

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

    /** A copy of the suffix of `E_k` whose spans are ≤ `d`. */
    def atMost(d: Int): Array[Int] = java.util.Arrays.copyOfRange(es, firstAtMost(d), n)

    /** The position of the first edge of span ≤ `d`, or `size` if none. */
    def firstAtMost(d: Int): Int = {
      val b = firstBlockAtMost(d)
      if (b == nb) n else offs(b)
    }

    /** The first block of span ≤ `d`, or `blocks` if none: one binary
      * search of the descending keys of `D_k`.
      */
    private def firstBlockAtMost(d: Int): Int = {
      var lo = 0; var hi = nb
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (keys(mid) <= d) hi = mid else lo = mid + 1
      }
      lo
    }

    /** A new entry: `e` enters at the tail, inside the last block, and moves
      * up to span `d` from there, so entries may arrive in any order. The
      * kernels and `union` add each level's entries in descending span, so
      * theirs never move.
      */
    private[KSpanTable] def add(e: Int, d: Int): Unit = {
      stamp = mods
      if (n == es.length) es = java.util.Arrays.copyOf(es, n + (n >> 3) + 4)
      es(n) = e
      n += 1
      if (nb == 0 || keys(nb - 1) > d) insertBlock(nb, d, n - 1)
      else if (keys(nb - 1) < d) relocate(e, n - 1, nb - 1, d)
    }

    /** A changed entry: `e` moves from span `old` to span `nu`. */
    private[KSpanTable] def move(e: Int, old: Int, nu: Int): Unit = {
      stamp = mods
      val b = firstBlockAtMost(old)
      assert(b < nb && keys(b) == old, s"edge $e has no block of its span $old")
      var p = offs(b)
      while (es(p) != e) p += 1
      relocate(e, p, b, nu)
    }

    /** Move `e`, at position `at` in block `from`, to the block of span
      * `nu`, which is made if missing; block `from` is dropped if `e` was
      * its last edge. The hole `e` leaves travels with it: at each boundary
      * crossed, the edge there fills the hole and leaves its own slot as
      * the next one. Timed on the table's move clock, for `move` and `add`
      * alike.
      */
    private def relocate(e: Int, at: Int, from: Int, nu: Int): Unit = {
      val t0 = System.nanoTime()
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
      moveNs += System.nanoTime() - t0
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
    * unset, for a builder to fill through `setSpan`. The rows of trussness
    * 2 share one empty array, which `raise` replaces rather than writes.
    * Level k gets room for its `#{e : trn(e) ≥ k}` entries. `deltaMax` is
    * the largest triangle mts of the graph; on a maintained table, where
    * mts only shrinks, it is an upper bound of it. Nothing is sized by it.
    */
  private[repro] def allocate(trn: Array[Int], deltaMax: Int): KSpanTable = {
    val rows = new Array[Array[Int]](trn.length)
    var e = 0
    while (e < trn.length) {
      if (trn(e) < 3) rows(e) = Array.emptyIntArray // shared: a row of no slots is never written
      else { rows(e) = new Array[Int](trn(e) - 2); java.util.Arrays.fill(rows(e), -1) }
      e += 1
    }
    sized(trn, rows, deltaMax)
  }

  /** The table of `m` edges that is the disjoint union of `parts`, the
    * tables of the split's parts: local edge l of part p is edge
    * `global(p)(l)`, and an edge in no part has trussness 2 and the shared
    * empty row. The parts' rows become the table's rows, not copied, so
    * no part may be used again. Level k is entered block by block: the
    * parts' blocks of level k in descending span, by one stable sort, so
    * blocks of equal span keep part order, and each block's entries in its
    * part's order, so every entry lands at its level's tail, nothing
    * moves, and two builds of one input give identical level arrays. The
    * levels are filled by [[Split.runAll]] on `workers` threads: a level's
    * entries write only that level, and none relocates.
    */
  private[repro] def union(m: Int, deltaMax: Int, global: Array[Array[Int]], parts: Array[KSpanTable],
                           workers: Int): KSpanTable = {
    val trn = new Array[Int](m)
    java.util.Arrays.fill(trn, 2)
    val rows = Array.fill(m)(Array.emptyIntArray)
    for (p <- parts.indices) {
      val g = global(p); val part = parts(p)
      var l = 0
      while (l < part.m) { trn(g(l)) = part.trn(l); rows(g(l)) = part.spans(l); l += 1 }
    }
    val t = sized(trn, rows, deltaMax)
    Split.runAll(t.kMax - 2, workers) { slot =>
      val k = slot + 3
      // the parts' blocks of level k, part by part, as (part, block, span)
      val at = parts.indices.filter(parts(_).kMax >= k)
      val n = at.map(parts(_).level(k).blocks).sum
      val owner = new Array[Int](n); val block = new Array[Int](n); val span = new Array[Int](n)
      var i = 0
      for (p <- at) {
        val lv = parts(p).level(k)
        var b = 0
        while (b < lv.blocks) { owner(i) = p; block(i) = b; span(i) = lv.span(b); i += 1; b += 1 }
      }
      val into = t.level(k)
      val order = TriangleSet.descending(span)
      i = 0
      while (i < n) {
        val j = order(i); val lv = parts(owner(j)).level(k); val g = global(owner(j))
        var q = lv.start(block(j))
        val end = lv.end(block(j))
        while (q < end) { into.add(g(lv.edge(q)), span(j)); q += 1 }
        i += 1
      }
    }
    t
  }

  /** The table over `trn` and `rows`, level k an empty order with room for
    * exactly its `#{e : trn(e) ≥ k}` entries.
    */
  private def sized(trn: Array[Int], rows: Array[Array[Int]], deltaMax: Int): KSpanTable = {
    var top = 2
    var e = 0
    while (e < trn.length) { if (trn(e) > top) top = trn(e); e += 1 }
    // size(k − 3): the edges of trussness exactly k, then of at least k
    val size = new Array[Int](top - 2)
    e = 0
    while (e < trn.length) { if (trn(e) >= 3) size(trn(e) - 3) += 1; e += 1 }
    var i = size.length - 2
    while (i >= 0) { size(i) += size(i + 1); i -= 1 }
    val t = new KSpanTable(trn, rows, trn.length, deltaMax, top)
    t.levels = size.map(new t.Level(_))
    t
  }
}
