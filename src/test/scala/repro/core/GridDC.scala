package repro.core

import repro.Refs._

/** The reference DC-Index derivation: Definitions 6–8 over the full
  * (k, δ) grid, every cell of `3 ≤ k ≤ kMax` × `0 ≤ δ ≤ δmax` visited three
  * times (arborescence with reduction, kept ids, lookup) and every IES
  * copied. `DCIndex` derives the same tree from the level directories
  * alone; tests hold it to this one, as `fixpointTruss` is kept for the
  * peels. Needs `(kMax − 2)(δmax + 1)` bytes and ints, so only small δmax.
  */
object GridDC {

  /** The derived tree in `DCIndex`'s shape. */
  final case class Result(m: Int, nodes: Array[DCNode], rootId: Int,
      runStarts: Array[Array[Int]], runNodes: Array[Array[Int]]) {

    /** `DCIndex.approxBytes`' formula: 8 per IES entry, 16 per node and 8
      * per lookup run.
      */
    def approxBytes: Long =
      nodes.iterator.map(_.size.toLong).sum * 8L + nodes.length * 16L + runStarts.iterator.map(_.length.toLong).sum * 8L

    /** DC-Query node by node, the reference for `DCIndex.query`'s run
      * copies: the last run of row k that starts at or before δ, then the
      * IES of every node on its representative's path to the root, in path
      * order. Rows outside `3..kMax` answer as `DCIndex.query` does.
      */
    def query(k: Int, delta: Int): Array[Int] =
      if (k <= 2) Array.range(0, m)
      else if (k - 3 >= runStarts.length) Array.emptyIntArray
      else {
        val run = runStarts(k - 3).lastIndexWhere(_ <= delta)
        Iterator.iterate(if (run < 0) -1 else runNodes(k - 3)(run))(nodes(_).parent)
          .takeWhile(_ >= 0).flatMap(nodes(_).ies).toArray
      }
  }

  /** `idx`'s tree in the reference's shape. */
  def of(idx: DCIndex): Result = Result(idx.m, idx.nodes, idx.rootId, idx.runStarts, idx.runNodes)

  private def node(k: Int, d: Int, parent: Int, ies: Array[Int]) = new DCNode(k, d, parent, ies, 0, ies.length)

  def derive(t: KSpanTable): Result = {
    val kMax = t.kMax
    val dMax = t.deltaMax
    if (kMax < 3) return Result(t.m, Array(node(3, 0, -1, Array.emptyIntArray)), 0, Array.empty, Array.empty)

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
      nodes(ni) = node(nk, nd, parent, ies)
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

    Result(t.m, nodes, rootId, runStarts, runNodes)
  }
}
