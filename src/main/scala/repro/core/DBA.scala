package repro.core

import repro.triangles.TriangleSet
import repro.truss.TrussDecomposition

/** Decomposition Based Algorithm (§V-A): constructs the full k-span table
  * (equivalently, every Horizontal IES of the (k,δ)-truss graph) by
  * decrementally decomposing `T_{k,δ}` from `δ = δmax` down to 0 for each k.
  *
  * For a fixed k it starts from the static k-truss (= `T_{k,δmax}`), then at
  * each step δ invalidates exactly the still-alive triangles with
  * `mts = δ` (the δ-triangle list makes this O(1) per triangle — triangles
  * with larger mts were invalidated in earlier steps, the paper's
  * de-duplication trick) and peels the edges whose δ-support drops below
  * `k−2`. An edge peeled during step δ belongs to `T_{k,δ}` but not
  * `T_{k,δ−1}`, i.e. its k-span is δ; survivors at δ = 0 have k-span 0.
  */
object DBA {

  def build(ts: TriangleSet): KSpanTable = {
    val m = ts.m
    val trn = TrussDecomposition.trussness(ts)
    val dMax = ts.deltaMax
    val table = KSpanTable.allocate(trn, dMax)

    val byMts = ts.byMts
    var k = 3
    while (k <= table.kMax) {
      // T_{k,δmax} = static k-truss; triangles alive iff fully inside it
      val alive = Array.tabulate(m)(e => trn(e) >= k)
      val triAlive = new Array[Boolean](ts.size)
      val sup = new Array[Int](m)
      var i = 0
      while (i < ts.size) {
        val a = ts.e1(i); val b = ts.e2(i); val c = ts.e3(i)
        if (alive(a) && alive(b) && alive(c)) {
          triAlive(i) = true
          sup(a) += 1; sup(b) += 1; sup(c) += 1
        }
        i += 1
      }
      val queue = scala.collection.mutable.ArrayDeque.empty[Int]
      // invalidate tid; a peeled edge's own support is never read again
      def kill(tid: Int): Unit = {
        triAlive(tid) = false
        val a = ts.e1(tid); val b = ts.e2(tid); val c = ts.e3(tid)
        sup(a) -= 1; if (alive(a) && sup(a) < k - 2) queue += a
        sup(b) -= 1; if (alive(b) && sup(b) < k - 2) queue += b
        sup(c) -= 1; if (alive(c) && sup(c) < k - 2) queue += c
      }
      var delta = dMax
      while (delta >= 1) {
        val bucket = byMts(delta)
        var bi = 0
        while (bi < bucket.length) {
          if (triAlive(bucket(bi))) kill(bucket(bi))
          bi += 1
        }
        while (queue.nonEmpty) {
          val e = queue.removeHead()
          if (alive(e) && sup(e) < k - 2) {
            alive(e) = false
            table.setSpan(e, k, delta) // H-IES between T_{k,δ} and T_{k,δ−1}
            val incident = ts.byEdge(e)
            var ti = 0
            while (ti < incident.length) {
              if (triAlive(incident(ti))) kill(incident(ti))
              ti += 1
            }
          }
        }
        delta -= 1
      }
      var e = 0
      while (e < m) { if (alive(e)) table.setSpan(e, k, 0); e += 1 }
      k += 1
    }
    table
  }
}
