package repro.core

/** One kept node of the incremental edge set tree: the (k, δ)-truss it
  * represents, its parent in the reduced arborescence (-1 for the root) and
  * its Incremental Edge Set relative to its *original* parent (identical to
  * the IES relative to the reduced parent, because every skipped node
  * contributed an empty IES).
  */
final class DCNode(val k: Int, val delta: Int, val parent: Int, val ies: Array[Int])

/** Dual Containment Index (§IV-B).
  *
  * Derivation implemented exactly as Definitions 6–8:
  *  1. (k,δ)-truss graph: grid nodes (k, δ) with a vertical edge to
  *     (k+1, δ) weighted `|T_{k,δ}| − |T_{k+1,δ}|` and a horizontal edge to
  *     (k, δ−1) weighted `#{e : trn(e) ≥ k, kspan(e,k) = δ}`;
  *  2. arborescence: keep the lighter outgoing edge (ties keep the
  *     horizontal one — the paper does not fix a tie-break, and horizontal
  *     keeps the structure closest to TC-Index);
  *  3. reduction: a node whose kept edge has weight 0 is merged into its
  *     parent; queries for it resolve to its representative.
  *
  * The per-row compressed lookup table maps δ to the representative tree
  * node by binary search, so DC-Query costs `O(log δmax + |T_{k,δ}|)` —
  * the same order as TC-Query (Theorem 4) — while the edge storage is
  * space-optimal among structures that keep that retrieval bound
  * (Theorem 3).
  */
final class DCIndex(
    val nodes: Array[DCNode],
    val rootId: Int,
    // row k−3 of the lookup: the runs' ascending δ starts and, at the same
    // positions, their representative node ids; binary search on δ
    val runStarts: Array[Array[Int]],
    val runNodes: Array[Array[Int]],
    val m: Int,
    val deltaMax: Int,
) {
  def kMax: Int = runStarts.length + 2

  /** Edge ids of `T_{k,δ}`: resolve the representative node, then union the
    * IESes on the path to the root (disjoint by construction).
    */
  def query(k: Int, delta: Int): Array[Int] = {
    if (k <= 2) return Array.range(0, m)
    if (k > kMax) return Array.emptyIntArray
    // the run with the largest start <= delta (starts are distinct)
    val i = java.util.Arrays.binarySearch(runStarts(k - 3), delta)
    val found = if (i >= 0) i else -i - 2
    if (found < 0) return Array.emptyIntArray
    val node = runNodes(k - 3)(found)
    // two passes: size the result exactly, then bulk-copy the path IESes
    var total = 0
    var cur = node
    while (cur >= 0) { total += nodes(cur).ies.length; cur = nodes(cur).parent }
    val out = new Array[Int](total)
    var off = 0
    cur = node
    while (cur >= 0) {
      val a = nodes(cur).ies
      System.arraycopy(a, 0, out, off, a.length)
      off += a.length
      cur = nodes(cur).parent
    }
    out
  }

  /** Total number of edge entries stored in IESes (Table II "total edge #"). */
  def totalEdgeEntries: Long = nodes.iterator.map(_.ies.length.toLong).sum

  /** Approximate serialized size in bytes: 8 per IES edge entry + 16 per
    * tree node + 8 per lookup run.
    */
  def approxBytes: Long =
    totalEdgeEntries * 8L + nodes.length * 16L +
      runStarts.iterator.map(_.length.toLong).sum * 8L
}

object DCIndex {

  /** Build the reduced (k,δ)-truss arborescence + IES tree from the k-span
    * table's level orders: the horizontal weights are the block sizes of
    * each level's directory, and every IES is a slice, or a filtered
    * suffix, of a level order. No pass over the table's edges.
    */
  def fromTable(t: KSpanTable): DCIndex = {
    val kMax = t.kMax
    val dMax = t.deltaMax
    if (kMax < 3)
      return new DCIndex(Array(new DCNode(3, 0, -1, Array.emptyIntArray)), 0,
        Array.empty, Array.empty, t.m, dMax)

    val nK = kMax - 2          // rows k = 3..kMax
    val nD = dMax + 1          // cols δ = 0..dMax
    @inline def gid(k: Int, d: Int): Int = (k - 3) * nD + d

    // --- arborescence and reduction in one pass --------------------------
    // k descending, δ ascending, so both possible parents, (k+1, δ) and
    // (k, δ−1), are resolved first. parentDir: 0 = vertical, 1 = horizontal,
    // -1 = root; the lighter outgoing edge is kept (ties keep horizontal).
    // rep(node) = self if kept, else rep(parent): a node whose kept edge
    // has weight 0 is merged into its parent. The horizontal weight
    // #{e : trn(e) ≥ k, kspan(e,k) = δ} is the size of row k's block of
    // span δ, read by walking the directory from its smallest span up as δ
    // ascends; the vertical weight |T_{k,δ}| − |T_{k+1,δ}| comes from
    // running prefix sums over δ of the horizontal weights of rows k and k+1.
    val parentDir = new Array[Byte](nK * nD)
    val rep = new Array[Int](nK * nD)
    var k = kMax
    while (k >= 3) {
      val hasV = k < kMax
      val row = t.level(k)
      val up = if (hasV) t.level(k + 1) else null
      var b = row.blocks - 1                  // next block of row k
      var bUp = if (hasV) up.blocks - 1 else -1 // next block of row k+1
      var sizeK = 0L  // |T_{k,δ}|
      var sizeUp = 0L // |T_{k+1,δ}|
      var d = 0
      while (d <= dMax) {
        var h = 0L
        if (b >= 0 && row.span(b) == d) { h = row.end(b) - row.start(b); b -= 1 }
        sizeK += h
        if (bUp >= 0 && up.span(bUp) == d) { sizeUp += up.end(bUp) - up.start(bUp); bUp -= 1 }
        val hasH = d >= 1
        val wV = if (hasV) sizeK - sizeUp else Long.MaxValue
        val wH = if (hasH) h else Long.MaxValue
        val id = gid(k, d)
        if (!hasV && !hasH) { parentDir(id) = -1; rep(id) = id } // root is always kept
        else {
          val vertical = wV < wH
          parentDir(id) = if (vertical) 0 else 1
          val pid = if (vertical) gid(k + 1, d) else gid(k, d - 1)
          rep(id) = if (math.min(wV, wH) == 0L) rep(pid) else id
        }
        d += 1
      }
      k -= 1
    }

    // --- materialize kept nodes with their IESes --------------------------
    // k-span of e at level k+1, treating k = trn(e) as +∞ — k-spans are
    // nondecreasing in k, so e ∈ T_{k,δ} \ T_{k+1,δ} iff
    // kspan(e,k) ≤ δ < kspan(e,k+1)
    @inline def spanUp(e2: Int, k2: Int): Int =
      if (k2 >= t.trn(e2)) Int.MaxValue else t.span(e2, k2 + 1)

    val nodeId = new Array[Int](nK * nD)
    val keptBuf = new scala.collection.mutable.ArrayBuilder.ofInt
    var nKept = 0
    var id = 0
    while (id < nK * nD) {
      if (rep(id) == id) { nodeId(id) = nKept; keptBuf += id; nKept += 1 }
      id += 1
    }
    val kept = keptBuf.result()
    val nodes = new Array[DCNode](nKept)
    var rootId = -1
    var ni = 0
    while (ni < nKept) {
      val g = kept(ni)
      val nk = g / nD + 3
      val nd = g % nD
      val dir = parentDir(g)
      val (parent, ies) =
        if (dir == -1) {
          rootId = ni
          // root (kMax, 0): its full edge set
          (-1, t.level(nk).spanEdges(nd))
        } else if (dir == 0) {
          // vertical parent (k+1, δ): IES = T_{k,δ} \ T_{k+1,δ}
          //                               = {kspan(e,k) ≤ δ < kspan(e,k+1)},
          // filtered from the suffix of E_k with kspan(e,k) ≤ δ
          val pid = nodeId(rep(gid(nk + 1, nd)))
          val row = t.level(nk)
          val buf = new scala.collection.mutable.ArrayBuilder.ofInt
          var p = row.firstAtMost(nd)
          while (p < row.size) {
            val e2 = row.edge(p)
            if (spanUp(e2, nk) > nd) buf += e2
            p += 1
          }
          (pid, buf.result())
        } else {
          // horizontal parent (k, δ−1): IES = {trn ≥ k, kspan = δ}
          val pid = nodeId(rep(gid(nk, nd - 1)))
          (pid, t.level(nk).spanEdges(nd))
        }
      nodes(ni) = new DCNode(nk, nd, parent, ies)
      ni += 1
    }

    // --- compressed per-row lookup table ---------------------------------
    val runStarts = new Array[Array[Int]](nK)
    val runNodes = new Array[Array[Int]](nK)
    var ki = 0
    while (ki < nK) {
      val starts = new scala.collection.mutable.ArrayBuilder.ofInt
      val reps = new scala.collection.mutable.ArrayBuilder.ofInt
      var last = -1
      var d = 0
      while (d <= dMax) {
        val r = nodeId(rep(gid(ki + 3, d)))
        // one run per maximal range of δ with the same representative; the
        // first run starts at δ = 0 in every row, even where T_{k,δ} is
        // still empty: its representative's path then unions to the empty
        // set
        if (r != last) { starts += d; reps += r; last = r }
        d += 1
      }
      runStarts(ki) = starts.result()
      runNodes(ki) = reps.result()
      ki += 1
    }

    new DCIndex(nodes, rootId, runStarts, runNodes, t.m, dMax)
  }
}
