package repro.truss

import repro.triangles.TriangleSet

/** Static-trussness maintenance under **edge insertion** (the building block
  * of §VI-B.2), after Huang et al., SIGMOD'14.
  *
  * When one edge `e0` is inserted, the trussness of any existing edge can
  * increase by at most 1, and every edge that increases lies on a path of
  * triangles reaching `e0` inside the new k-truss. The algorithm therefore:
  *
  *  1. bounds `trn(e0, G+) ∈ [k1, k2]` from the trussness of the edges it
  *     forms triangles with (`k2 = max_i min(key_i + 1, i + 2)` over the
  *     descending `key_i = min` trussness of the two companion edges);
  *  2. for each level `k ≤ k2`, BFS-collects the candidate edges
  *     (`trn = k−1`, not yet upgraded, triangle-connected to `e0` through
  *     potentially-k-truss triangles) and
  *  3. runs a support-elimination fixpoint; survivors get `trn += 1`.
  */
object TrussInsert {

  /** Update `trn` in place after inserting `e0`.
    *
    * `ts` must already include all triangles of the updated graph (in
    * particular the new triangles through `e0`), and `trn(e0)` must be 2 on
    * entry. Returns the set of pre-existing edges whose trussness increased
    * (excluding `e0`, whose final trussness is left in `trn(e0)`).
    */
  def maintain(ts: TriangleSet, trn: Array[Int], e0: Int): Set[Int] = {
    // the two edges of triangle tid other than e, lower id first
    @inline def lo(tid: Int, e: Int): Int = if (ts.e1(tid) == e) ts.e2(tid) else ts.e1(tid)
    @inline def hi(tid: Int, e: Int): Int = if (ts.e3(tid) == e) ts.e2(tid) else ts.e3(tid)

    val keys = ts.byEdge(e0).map(tid => math.min(trn(lo(tid, e0)), trn(hi(tid, e0)))).sortBy(-_)

    var k2 = 2
    var i = 0
    while (i < keys.length) {
      val cand = math.min(keys(i) + 1, i + 3) // prefix of length i+1 supports k−2 ≤ i+1
      if (cand > k2) k2 = cand
      i += 1
    }

    val upgraded = scala.collection.mutable.HashSet.empty[Int]
    var k = 3
    var e0Alive = true
    while (k <= k2 && e0Alive) {
      @inline def isCandidate(f: Int): Boolean =
        trn(f) == k - 1 && (f == e0 || !upgraded.contains(f))

      // --- BFS for candidates triangle-connected to e0 -------------------
      val cand = scala.collection.mutable.HashSet.empty[Int]
      val queue = scala.collection.mutable.ArrayDeque.empty[Int]
      if (isCandidate(e0)) { cand += e0; queue += e0 }
      while (queue.nonEmpty) {
        val f = queue.removeHead()
        for (tid <- ts.byEdge(f)) {
          val a = lo(tid, f); val b = hi(tid, f)
          // triangle can exist in the new k-truss iff both companions are
          // settled (trn ≥ k) or themselves candidates
          val aOk = trn(a) >= k || isCandidate(a)
          val bOk = trn(b) >= k || isCandidate(b)
          if (aOk && bOk) {
            for (g <- Seq(a, b) if isCandidate(g) && !cand.contains(g)) {
              cand += g; queue += g
            }
          }
        }
      }
      if (!cand.contains(e0)) { e0Alive = false }
      else {
        // --- support elimination fixpoint --------------------------------
        val alive = scala.collection.mutable.HashSet.empty[Int] ++ cand
        val sup = scala.collection.mutable.HashMap.empty[Int, Int]
        @inline def counted(a: Int, b: Int): Boolean =
          (trn(a) >= k || alive.contains(a)) && (trn(b) >= k || alive.contains(b))
        for (c <- cand) {
          var s = 0
          for (tid <- ts.byEdge(c)) {
            val a = lo(tid, c); val b = hi(tid, c)
            if (counted(a, b)) s += 1
          }
          sup(c) = s
        }
        val drop = scala.collection.mutable.ArrayDeque.empty[Int] ++
          cand.filter(c => sup(c) < k - 2)
        while (drop.nonEmpty) {
          val c = drop.removeHead()
          if (alive.contains(c)) {
            alive -= c
            for (tid <- ts.byEdge(c)) {
              val a = lo(tid, c); val b = hi(tid, c)
              // before c dropped, the triangle was counted in sup(a) iff the
              // other companions (c — then alive — and b) were settled-or-
              // alive; so decrement a iff b still is, and symmetrically.
              if (alive.contains(a) && (trn(b) >= k || alive.contains(b))) {
                sup(a) -= 1; if (sup(a) < k - 2) drop += a
              }
              if (alive.contains(b) && (trn(a) >= k || alive.contains(a))) {
                sup(b) -= 1; if (sup(b) < k - 2) drop += b
              }
            }
          }
        }
        if (!alive.contains(e0)) e0Alive = false
        else trn(e0) = k
        for (c <- alive if c != e0) { trn(c) = k; upgraded += c }
      }
      k += 1
    }
    upgraded.toSet
  }
}
