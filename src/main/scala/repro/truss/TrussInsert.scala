package repro.truss

import repro.core.LevelPeel
import repro.triangles.TriangleSet

/** Static-trussness maintenance under **edge insertion** (the building block
  * of §VI-B.2), after Huang et al., SIGMOD'14.
  *
  * When one edge `e0` is inserted, the trussness of any existing edge can
  * increase by at most 1, and every edge that increases lies on a path of
  * triangles reaching `e0` inside the new k-truss. So an edge rises at most
  * once, to the level one above its old trussness, and the candidates at
  * level k are `e0` and edges of old trussness k − 1. The algorithm:
  *
  *  1. bounds `trn(e0, G+) ∈ [k1, k2]` from the trussness of the edges it
  *     forms triangles with (`k2 = max_i min(key_i + 1, i + 2)` over the
  *     descending `key_i = min` trussness of the two companion edges);
  *  2. for each level `k ≤ k2` while `e0` survives, collects the
  *     candidates triangle-connected to `e0` through triangles whose
  *     edges are all candidates or settled (old trussness ≥ k), by one
  *     [[LevelPeel.grow]] from `e0`, and
  *  3. runs the [[LevelPeel]] support fixpoint on them, with the settled
  *     edges as fixed support; the survivors rise to k.
  *
  * It reads the old trussness and writes none: it returns `e0`'s new
  * trussness and the edges that rise, and §VI maintenance raises them
  * through [[repro.core.KSpanTable]], the one owner of the table's shape.
  */
object TrussInsert {

  /** The trussness changes of inserting `e0`, found with `peel`'s marks;
    * `trn`, the trussness before the insertion, is read and not written.
    *
    * `ts` must already include all triangles of the updated graph (in
    * particular the new triangles through `e0`), and `trn(e0)` must be 2.
    * Returns `e0`'s new trussness and the pre-existing edges whose
    * trussness rises, each once and each by exactly one.
    */
  def maintain(ts: TriangleSet, peel: LevelPeel, trn: Array[Int], e0: Int): (Int, Array[Int]) = {
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

    val upgraded = new scala.collection.mutable.ArrayBuilder.ofInt
    var top = 2 // e0's trussness so far
    var k = 3
    while (k <= k2 && top == k - 1) {
      @inline def isCandidate(f: Int): Boolean = f == e0 || trn(f) == k - 1
      // a triangle can exist in the new k-truss iff its edges are all
      // settled or candidates
      @inline def fits(f: Int): Boolean = trn(f) >= k || isCandidate(f)

      peel.begin()
      peel.addMember(e0)
      peel.grow(tid => fits(ts.e1(tid)) && fits(ts.e2(tid)) && fits(ts.e3(tid)))(isCandidate)
      peel.fixpoint(k) { c => if (c == e0) top = k else upgraded += c }
      k += 1
    }
    (top, upgraded.result())
  }
}
