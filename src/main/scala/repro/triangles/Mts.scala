package repro.triangles

/** Minimum time span of a triangle (Definition 1).
  *
  * For a triangle `{u, v, w}` with timestamp sets `τ_uv, τ_vw, τ_wu`,
  * `mts = min{ max(|t1−t2|, |t2−t3|, |t3−t1|) }` over all choices of one
  * timestamp per edge — i.e. the smallest window length that contains at
  * least one interaction of every pair.
  */
object Mts {

  /** Three-pointer "smallest range covering one element of each list".
    *
    * Requires the three arrays sorted ascending (the `TEdge` invariant).
    * Runs in `O(|a| + |b| + |c|)`: repeatedly record the span of the current
    * heads and advance the pointer holding the minimum — the classic proof
    * that no candidate window is skipped carries over verbatim.
    */
  def of(a: Array[Int], b: Array[Int], c: Array[Int]): Int =
    of(a, 0, a.length, b, 0, b.length, c, 0, c.length)

  /** [[of]] over the sorted slices `a[aLo, aHi)`, `b[bLo, bHi)` and
    * `c[cLo, cHi)`.
    */
  def of(a: Array[Int], aLo: Int, aHi: Int, b: Array[Int], bLo: Int, bHi: Int,
         c: Array[Int], cLo: Int, cHi: Int): Int = {
    var i = aLo; var j = bLo; var k = cLo
    var best = Int.MaxValue
    while (i < aHi && j < bHi && k < cHi && best > 0) {
      val x = a(i); val y = b(j); val z = c(k)
      val hi = math.max(x, math.max(y, z))
      val lo = math.min(x, math.min(y, z))
      if (hi - lo < best) best = hi - lo
      if (x == lo) i += 1 else if (y == lo) j += 1 else k += 1
    }
    best
  }
}
