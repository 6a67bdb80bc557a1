package repro.truss

import repro.triangles.TriangleSet

/** Classic bucket-peeling truss decomposition (Wang & Cheng, PVLDB'12)
  * over the triangles of a [[TriangleSet]].
  *
  * Over all triangles it computes ordinary edge trussness; over a store of
  * the triangles with `mts(Δ) ≤ δ` it computes δ-trussness, whose ≥k level
  * sets are exactly the paper's (k, δ)-trusses (mts is a property of the
  * triangle's own timestamp sets, unaffected by subgraph restriction, so
  * the standard peeling hierarchy argument carries over verbatim).
  *
  * Triangle support is maintained from the [[incidence]] triples of the
  * chosen triangles rather than by re-intersecting adjacency lists: each
  * triangle is touched at most once, when its first edge is peeled.
  */
object TrussDecomposition {

  /** The triangles through each edge as `(p, f1, f2)` triples, `p` the
    * position of the triangle in `order` and `f1`, `f2` its other two edges:
    * edge e's triples are `inc[3·start(e), 3·start(e + 1))`, in ascending
    * `p`. Returns `(start, inc)`.
    */
  def incidence(ts: TriangleSet, order: Array[Int]): (Array[Int], Array[Int]) = {
    val m = ts.m
    val start = new Array[Int](m + 1)
    var p = 0
    while (p < order.length) {
      val t = order(p)
      start(ts.e1(t) + 1) += 1; start(ts.e2(t) + 1) += 1; start(ts.e3(t) + 1) += 1
      p += 1
    }
    var e = 0
    while (e < m) { start(e + 1) += start(e); e += 1 }
    val fill = java.util.Arrays.copyOf(start, m)
    val inc = new Array[Int](3 * start(m))
    @inline def put(e: Int, p: Int, f1: Int, f2: Int): Unit = {
      val q = 3 * fill(e); inc(q) = p; inc(q + 1) = f1; inc(q + 2) = f2; fill(e) += 1
    }
    p = 0
    while (p < order.length) {
      val t = order(p)
      val a = ts.e1(t); val b = ts.e2(t); val c = ts.e3(t)
      put(a, p, b, c); put(b, p, a, c); put(c, p, a, b)
      p += 1
    }
    (start, inc)
  }

  /** Trussness of every edge of `ts` over its triangles: `trn(e) ≥ 2`, and
    * the k-truss is `{e : trn(e) ≥ k}`.
    */
  def trussness(ts: TriangleSet): Array[Int] = {
    val (start, inc) = incidence(ts, Array.range(0, ts.size))
    peel(start, inc)
  }

  /** Trussness of every edge over the triangles of an [[incidence]].
    * Bin-bucket implementation à la Batagelj–Zaversnik: O(m + Σsup).
    */
  def peel(start: Array[Int], inc: Array[Int]): Array[Int] = {
    val m = start.length - 1
    val trn = new Array[Int](m)
    val sup = new Array[Int](m)
    var maxSup = 0
    var e = 0
    while (e < m) { sup(e) = start(e + 1) - start(e); maxSup = math.max(maxSup, sup(e)); e += 1 }

    // counting-sort edges by support into (vert, pos, bin)
    val bin = new Array[Int](maxSup + 2)
    e = 0
    while (e < m) { bin(sup(e)) += 1; e += 1 }
    var first = 0
    var s = 0
    while (s <= maxSup) { val c = bin(s); bin(s) = first; first += c; s += 1 }
    val vert = new Array[Int](m)
    val pos = new Array[Int](m)
    e = 0
    while (e < m) { pos(e) = bin(sup(e)); vert(pos(e)) = e; bin(sup(e)) += 1; e += 1 }
    s = maxSup
    while (s >= 1) { bin(s) = bin(s - 1); s -= 1 }
    bin(0) = 0

    // a triangle is gone once its first edge is peeled, so the other two
    // edges of a triangle that is not gone are still in the bins
    val gone = new Array[Boolean](start(m) / 3)
    // move f one bin down if sup(f) > sc (swap with the first edge of its bin)
    @inline def lower(f: Int, sc: Int): Unit = if (sup(f) > sc) {
      val sf = sup(f); val pf = pos(f); val w = bin(sf); val ew = vert(w)
      if (f != ew) { vert(pf) = ew; pos(ew) = pf; vert(w) = f; pos(f) = w }
      bin(sf) += 1
      sup(f) -= 1
    }

    var k = 2
    var i = 0
    while (i < m) {
      val cur = vert(i)
      if (sup(cur) + 2 > k) k = sup(cur) + 2
      trn(cur) = k
      var q = 3 * start(cur)
      while (q < 3 * start(cur + 1)) {
        if (!gone(inc(q))) { gone(inc(q)) = true; lower(inc(q + 1), sup(cur)); lower(inc(q + 2), sup(cur)) }
        q += 3
      }
      i += 1
    }
    trn
  }
}
