package repro.truss

import repro.triangles.TriangleSet

/** Classic bucket-peeling truss decomposition (Wang & Cheng, PVLDB'12),
  * generalized over a per-triangle validity predicate.
  *
  * With `valid = _ => true` it computes ordinary edge trussness; with
  * `valid = mts(Δ) ≤ δ` it computes δ-trussness, whose ≥k level sets are
  * exactly the paper's (k, δ)-trusses (mts is a property of the triangle's
  * own timestamp sets, unaffected by subgraph restriction, so the standard
  * peeling hierarchy argument carries over verbatim).
  *
  * Triangle support is maintained from the precomputed [[TriangleSet]]
  * rather than by re-intersecting adjacency lists: each triangle is touched
  * at most once when its first edge is peeled.
  */
object TrussDecomposition {

  /** Support of each edge = number of valid triangles containing it. */
  def supports(ts: TriangleSet, valid: Int => Boolean): Array[Int] = {
    val sup = new Array[Int](ts.m)
    var i = 0
    while (i < ts.size) {
      if (valid(i)) { sup(ts.e1(i)) += 1; sup(ts.e2(i)) += 1; sup(ts.e3(i)) += 1 }
      i += 1
    }
    sup
  }

  /** Trussness of every edge, counting only valid triangles.
    *
    * Returns `trn` with `trn(e) ≥ 2`; the (k, δ)-truss is
    * `{e : trn(e) ≥ k}` when `valid` selects δ-triangles.
    * Bin-bucket implementation à la Batagelj–Zaversnik: O(m + Σsup).
    */
  def trussness(ts: TriangleSet, valid: Int => Boolean = _ => true): Array[Int] = {
    val m = ts.m
    val trn = new Array[Int](m)
    if (m == 0) return trn
    val sup = supports(ts, valid)
    val maxSup = sup.max

    // counting-sort edges by support into (vert, pos, bin)
    val bin = new Array[Int](maxSup + 2)
    var e = 0
    while (e < m) { bin(sup(e)) += 1; e += 1 }
    var start = 0
    var s = 0
    while (s <= maxSup) { val c = bin(s); bin(s) = start; start += c; s += 1 }
    val vert = new Array[Int](m)
    val pos = new Array[Int](m)
    e = 0
    while (e < m) { pos(e) = bin(sup(e)); vert(pos(e)) = e; bin(sup(e)) += 1; e += 1 }
    s = maxSup
    while (s >= 1) { bin(s) = bin(s - 1); s -= 1 }
    bin(0) = 0

    val alive = Array.fill(m)(true)
    val triAlive = Array.tabulate(ts.size)(valid)

    var k = 2
    var i = 0
    while (i < m) {
      val cur = vert(i)
      if (sup(cur) + 2 > k) k = sup(cur) + 2
      trn(cur) = k
      alive(cur) = false
      val incident = ts.byEdge(cur)
      var ti = 0
      while (ti < incident.length) {
        val tid = incident(ti)
        if (triAlive(tid)) {
          triAlive(tid) = false
          var fi = 0
          while (fi < 3) { // cur itself is no longer alive
            val f = if (fi == 0) ts.e1(tid) else if (fi == 1) ts.e2(tid) else ts.e3(tid)
            if (alive(f) && sup(f) > sup(cur)) {
              // move f one bin down (swap with the first edge of its bin)
              val sf = sup(f); val pf = pos(f); val w = bin(sf); val ew = vert(w)
              if (f != ew) {
                vert(pf) = ew; pos(ew) = pf; vert(w) = f; pos(f) = w
              }
              bin(sf) += 1
              sup(f) -= 1
            }
            fi += 1
          }
        }
        ti += 1
      }
      i += 1
    }
    trn
  }

  /** Naive fixpoint reference for tests: repeatedly drop edges whose valid
    * support inside the survivor set is < k−2; returns the (k,δ)-style truss
    * edge set for an explicit `k` and triangle validity predicate.
    */
  def fixpointTruss(ts: TriangleSet, k: Int, valid: Int => Boolean): Set[Int] = {
    var alive = (0 until ts.m).toSet
    var changed = true
    while (changed) {
      val sup = new Array[Int](ts.m)
      for (i <- 0 until ts.size if valid(i)) {
        val a = ts.e1(i); val b = ts.e2(i); val c = ts.e3(i)
        if (alive(a) && alive(b) && alive(c)) { sup(a) += 1; sup(b) += 1; sup(c) += 1 }
      }
      val next = alive.filter(e => sup(e) >= k - 2)
      changed = next.size != alive.size
      alive = next
    }
    alive
  }
}
