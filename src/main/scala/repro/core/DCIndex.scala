package repro.core

/** One kept node of the incremental edge set tree: the (k, δ)-truss it
  * represents, its parent in the reduced arborescence (-1 for the root) and
  * its Incremental Edge Set relative to its *original* parent (identical to
  * the IES relative to the reduced parent, because every skipped node
  * contributed an empty IES).
  *
  * The IES is the slice `[from, until)` of `src`. For the root and a
  * horizontal node, `src` is the backing array of level k's order, read in
  * place; for a vertical node it is the node's own filtered copy.
  */
final class DCNode private[core] (val k: Int, val delta: Int, val parent: Int,
    private[core] val src: Array[Int], private[core] val from: Int, private[core] val until: Int) {
  def size: Int = until - from

  /** A copy of the IES. */
  def ies: Array[Int] = java.util.Arrays.copyOfRange(src, from, until)
}

/** Dual Containment Index (§IV-B) over a [[KSpanTable]].
  *
  * Derivation as Definitions 6–8:
  *  1. (k,δ)-truss graph: grid nodes (k, δ) with a vertical edge to
  *     (k+1, δ) weighted `|T_{k,δ}| − |T_{k+1,δ}|` and a horizontal edge to
  *     (k, δ−1) weighted `#{e : trn(e) ≥ k, kspan(e,k) = δ}`;
  *  2. arborescence: keep the lighter outgoing edge (ties keep the
  *     horizontal one — the paper does not fix a tie-break, and horizontal
  *     keeps the structure closest to TC-Index);
  *  3. reduction: a node whose kept edge has weight 0 is merged into its
  *     parent; queries for it resolve to its representative.
  *
  * Only the columns `D_k ∪ {0}` of row k are visited, `O(Σ_k |D_k|)` in
  * all, with nothing sized by δmax. That is exact: at a column δ ≥ 1 that
  * is not in `D_k` the horizontal weight is 0 and the vertical one is never
  * negative, so the horizontal edge is kept and the node merges into
  * (k, δ − 1). Every kept node and every lookup-run start of row k lies in
  * `D_k ∪ {0}`. Rows are derived k descending: `|T_{k,δ}|` is a suffix
  * length of `E_k`, and a cursor over row k+1's directory and one over its
  * lookup runs, built just before, give `|T_{k+1,δ}|` and the
  * representative of (k+1, δ).
  *
  * The IES of the root or of a horizontal node (k, δ) is the block of span
  * δ in `E_k`, read in place as TC reads its rows; a vertical node's IES,
  * `T_{k,δ} \ T_{k+1,δ}`, is filtered from the suffix of `E_k` into a copy.
  * Since the blocks move when the table changes, every read — `query`,
  * `nodes`, the lookup runs, `totalEdgeEntries`, `approxBytes` — first
  * brings the tree up to date if the table counts a mutation since the
  * last derivation. Row k reads only levels k and k + 1 and row k + 1's
  * lookup runs, so with K the highest level that changed since then (each
  * level keeps the mutation count of its last change, stamped when an
  * entry is added or moved), the rows above K are still current: they
  * keep their nodes, ids and runs, and only rows K down to 3 are derived
  * again, after the node list is cut back to row K's first node. A
  * trussness `raise` that keeps `kMax` stamps no level, so the rows wait
  * for the `setSpan`s that enter its new slots. A change of `kMax` moves
  * the root, and every row is derived again. A table has one DC ([[DCIndex.fromTable]]), so a DC over
  * a table that §VI maintenance repairs is current after every insertion,
  * as TC is, at the cost of the rows the insertion reached; a [[DCNode]]
  * read from `nodes` is valid until the table's next mutation.
  *
  * A horizontal node's parent is the kept node of the previous column of
  * its row, whose block follows its own in `E_k`, so a chain of horizontal
  * nodes up to a vertical node or the root is one contiguous range of the
  * level's array. Beside each node the index keeps the end of the maximal
  * run that starts at its slice and the first ancestor past it, both set
  * when the node is pushed, from its parent's, and DC-Query sizes and
  * copies its answer one run at a time rather than one node at a time
  * (about 1.5 runs for a 41-node path on wikitalk-lite's Fig 11/12 grid).
  * A node's columns name only ancestors, which are derived before it, so
  * the rows that a re-derivation keeps keep their columns too.
  *
  * The per-row compressed lookup table maps δ to the representative tree
  * node by binary search, so DC-Query costs `O(log δmax + |T_{k,δ}|)` —
  * the same order as TC-Query (Theorem 4) — while the edge storage is
  * space-optimal among structures that keep that retrieval bound
  * (Theorem 3).
  */
final class DCIndex private (table: KSpanTable) {
  private var derivedAt = -1L
  private var top = -1 // kMax at the last derivation
  // the kept nodes, ids [0, nn): rows kMax down to 3, row k from rowFrom(k − 3)
  private var ns = new Array[DCNode](16)
  private var nn = 0
  // beside node i: the end of the maximal contiguous run of IESes that
  // starts at its slice and goes on through its ancestors' slices in the
  // same array, and the first ancestor past that run (−1 past the root)
  private var hopEnd = new Array[Int](16)
  private var hopNext = new Array[Int](16)
  private var rowFrom: Array[Int] = _
  // row k−3 of the lookup: the runs' ascending δ starts and, at the same
  // positions, their representative node ids; binary search on δ
  private var starts: Array[Array[Int]] = _
  private var reps: Array[Array[Int]] = _
  // what the last derivation rebuilt
  private var rows = 0
  private var rebuilt = 0

  def m: Int = table.m
  def kMax: Int = table.kMax
  def deltaMax: Int = table.deltaMax

  /** A copy of the kept nodes, indexed by node id. */
  def nodes: Array[DCNode] = { current(); java.util.Arrays.copyOf(ns, nn) }
  /** The root (kMax, 0), derived first. */
  def rootId: Int = 0
  def runStarts: Array[Array[Int]] = { current(); starts }
  def runNodes: Array[Array[Int]] = { current(); reps }

  /** Rows and nodes that the last derivation rebuilt: the DC nodes an
    * insertion touched.
    */
  private[repro] def rowsDerived: Int = { current(); rows }
  private[repro] def nodesDerived: Int = { current(); rebuilt }

  /** Edge ids of `T_{k,δ}`: resolve the representative node, then union the
    * IESes on the path to the root (disjoint by construction), one
    * contiguous run of in-place IESes per copy.
    */
  def query(k: Int, delta: Int): Array[Int] = {
    if (k <= 2) return Array.range(0, m)
    val node = representative(k, lookupRun(k, delta))
    // two passes: size the result exactly, then bulk-copy the path's runs
    var total = 0
    var cur = node
    while (cur >= 0) { total += hopEnd(cur) - ns(cur).from; cur = hopNext(cur) }
    val out = new Array[Int](total)
    var off = 0
    cur = node
    while (cur >= 0) {
      val n = ns(cur)
      val len = hopEnd(cur) - n.from
      System.arraycopy(n.src, n.from, out, off, len)
      off += len
      cur = hopNext(cur)
    }
    out
  }

  /** How [[query]] answers (k, δ), with no counter on the read path: the
    * lookup run of row k that holds δ, its representative node, the number
    * of nodes on the path from it to the root, and the length of each run
    * copied, which sum to the answer's length. `k ≤ 2` and `k > kMax` are
    * answered without the tree: run and node −1, no path.
    */
  def explain(k: Int, delta: Int): DCIndex.Explain = {
    val run = lookupRun(k, delta)
    val node = representative(k, run)
    var pathNodes = 0
    var cur = node
    while (cur >= 0) { pathNodes += 1; cur = ns(cur).parent }
    val runs = Vector.newBuilder[Int]
    cur = node
    while (cur >= 0) { runs += hopEnd(cur) - ns(cur).from; cur = hopNext(cur) }
    DCIndex.Explain(run, node, pathNodes, runs.result())
  }

  /** The run of row k's lookup with the largest start ≤ δ (starts are
    * distinct), or −1 if δ lies before the first or row k is not stored.
    */
  private def lookupRun(k: Int, delta: Int): Int =
    if (k <= 2 || k > kMax) -1
    else {
      current()
      val i = java.util.Arrays.binarySearch(starts(k - 3), delta)
      if (i >= 0) i else -i - 2
    }

  private def representative(k: Int, run: Int): Int = if (run < 0) -1 else reps(k - 3)(run)

  /** Total number of edge entries stored in IESes (Table II "total edge #"). */
  def totalEdgeEntries: Long = { current(); ns.iterator.take(nn).map(_.size.toLong).sum }

  /** Approximate serialized size in bytes: 8 per IES edge entry + 16 per
    * tree node + 8 per lookup run.
    */
  def approxBytes: Long =
    totalEdgeEntries * 8L + nn * 16L + runStarts.iterator.map(_.length.toLong).sum * 8L

  /** Derive again the rows at or below K, the highest level changed since
    * the last derivation, or every row if `kMax` moved, as the root moves
    * with it.
    */
  private def current(): Unit = if (derivedAt != table.mutations) {
    var hi = table.kMax
    if (hi == top) while (hi >= 3 && table.level(hi).changedAt <= derivedAt) hi -= 1
    derivedAt = table.mutations
    derive(hi)
  }

  /** Appends `n` and sets its run columns from its parent's, which is
    * pushed before it: the run goes on through the parent's if the
    * parent's slice lies in the same array and begins where `n`'s ends.
    */
  private def push(n: DCNode): Int = {
    if (nn == ns.length) {
      ns = java.util.Arrays.copyOf(ns, 2 * nn)
      hopEnd = java.util.Arrays.copyOf(hopEnd, 2 * nn)
      hopNext = java.util.Arrays.copyOf(hopNext, 2 * nn)
    }
    val p = n.parent
    if (p >= 0 && (ns(p).src eq n.src) && ns(p).from == n.until) {
      hopEnd(nn) = hopEnd(p)
      hopNext(nn) = hopNext(p)
    } else {
      hopEnd(nn) = n.until
      hopNext(nn) = p
    }
    ns(nn) = n
    nn += 1
    nn - 1
  }

  /** Rows `hi` down to 3. Row k reads only levels k and k + 1 and row
    * k + 1's lookup runs, so the rows above `hi` keep their nodes, ids and
    * runs; their nodes are a prefix of the node list, cut at row `hi`'s
    * first node.
    */
  private def derive(hi: Int): Unit = {
    val kMax = table.kMax
    val before = nn
    if (kMax != top) {
      top = kMax
      starts = new Array[Array[Int]](math.max(0, kMax - 2))
      reps = new Array[Array[Int]](starts.length)
      rowFrom = new Array[Int](starts.length)
      nn = 0
    }
    if (hi >= 3) nn = rowFrom(hi - 3)
    val first = nn
    if (kMax < 3 && nn == 0) push(new DCNode(3, 0, -1, Array.emptyIntArray, 0, 0))

    var k = hi
    while (k >= 3) {
      rowFrom(k - 3) = nn
      val row = table.level(k)
      val hasV = k < kMax
      val up = if (hasV) table.level(k + 1) else null
      val runS = new scala.collection.mutable.ArrayBuilder.ofInt
      val runN = new scala.collection.mutable.ArrayBuilder.ofInt
      var bUp = if (hasV) up.blocks - 1 else -1 // row k+1's blocks of span ≤ δ are those after bUp
      var run = 0                               // row k+1's lookup run that holds δ
      var last = -1                             // the representative of (k, δ − 1)
      // the columns δ ∈ D_k ∪ {0} ascending: block b of row k holds span δ
      var b = row.blocks - 1
      var d = 0
      while (d >= 0) {
        val inD = b >= 0 && row.span(b) == d
        val from = if (inD) row.start(b) else row.size // E_k[from, size) = T_{k,δ}
        var r = -1
        if (!hasV && d == 0) { // the root (kMax, 0): its full edge set
          r = push(new DCNode(k, d, -1, row.edgeArray, from, row.size))
        } else {
          var wV = Int.MaxValue
          var pUp = -1
          if (hasV) {
            while (bUp >= 0 && up.span(bUp) <= d) bUp -= 1
            while (run + 1 < starts(k - 2).length && starts(k - 2)(run + 1) <= d) run += 1
            wV = (row.size - from) - (up.size - (if (bUp >= 0) up.end(bUp) else 0))
            pUp = reps(k - 2)(run)
          }
          // the horizontal weight, the block size, is ≥ 1 at δ ≥ 1 in D_k
          val wH = if (d >= 1) row.end(b) - from else Int.MaxValue
          if (wV < wH) {
            // vertical parent (k+1, δ): merged into it if nothing is new
            if (wV == 0) r = pUp
            else {
              val buf = new scala.collection.mutable.ArrayBuilder.ofInt
              var p = from
              // e ∈ T_{k,δ} is new iff trn(e) = k or δ < kspan(e, k+1), as
              // k-spans are nondecreasing in k; trn(e) = k is tested on its
              // own, since no span can stand for +∞ when δ is Int.MaxValue
              while (p < row.size) { val e = row.edge(p); if (k >= table.trn(e) || table.span(e, k + 1) > d) buf += e; p += 1 }
              val ies = buf.result()
              r = push(new DCNode(k, d, pUp, ies, 0, ies.length))
            }
          } else { // horizontal parent (k, δ−1): the block of span δ
            r = push(new DCNode(k, d, last, row.edgeArray, from, row.end(b)))
          }
        }
        // one run per maximal range of δ with the same representative; the
        // first run starts at δ = 0 in every row, even where T_{k,δ} is
        // still empty: its representative's path then unions to the empty
        // set
        if (r != last) { runS += d; runN += r; last = r }
        if (inD) b -= 1
        d = if (b >= 0) row.span(b) else -1
      }
      starts(k - 3) = runS.result()
      reps(k - 3) = runN.result()
      k -= 1
    }
    rows = math.max(0, hi - 2)
    rebuilt = nn - first
    if (nn < before) java.util.Arrays.fill(ns.asInstanceOf[Array[AnyRef]], nn, before, null)
  }
}

object DCIndex {

  /** What [[DCIndex.explain]] reports for one (k, δ): the lookup run's
    * index in row k, the representative node's id, the number of nodes on
    * its path to the root, and the length of each contiguous run that the
    * query copies, from the representative up.
    */
  final case class Explain(run: Int, node: Int, pathNodes: Int, runs: Vector[Int])

  /** The one DC over `t`, made on the first call and kept on the table, as
    * TC is a view of it: current as `t` stands, and kept current row by
    * row on its first read after `t` changes.
    */
  def fromTable(t: KSpanTable): DCIndex = {
    if (t.dc == null) t.dc = new DCIndex(t)
    t.dc.current()
    t.dc
  }
}
