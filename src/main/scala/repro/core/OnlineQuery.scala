package repro.core

import repro.triangles.TriangleSet

/** Index-free (k, δ)-truss query (§III): δ-constrained truss peeling.
  *
  * Computes the δ-support of every edge (counting only triangles with
  * `mts ≤ δ`), then iteratively removes edges whose δ-support inside the
  * survivor set falls below `k−2`. The survivors are the maximal subgraph of
  * Definition 4. Cost is dominated by triangle listing + mts evaluation,
  * which the caller amortizes through the precomputed [[TriangleSet]]
  * (built once per graph by the Spark enumerator).
  */
object OnlineQuery {

  /** Edge ids of `T_{k,δ}`, ascending. `k ≤ 2` returns every edge. */
  def query(ts: TriangleSet, k: Int, delta: Int): Array[Int] = {
    val m = ts.m
    if (k <= 2) return Array.range(0, m)

    val triAlive = new Array[Boolean](ts.size)
    val sup = new Array[Int](m)
    var i = 0
    while (i < ts.size) {
      if (ts.mts(i) <= delta) {
        triAlive(i) = true
        sup(ts.e1(i)) += 1; sup(ts.e2(i)) += 1; sup(ts.e3(i)) += 1
      }
      i += 1
    }
    val alive = Array.fill(m)(true)
    val queue = scala.collection.mutable.ArrayDeque.empty[Int]
    var e = 0
    while (e < m) { if (sup(e) < k - 2) { queue += e }; e += 1 }
    while (queue.nonEmpty) {
      val cur = queue.removeHead()
      if (alive(cur)) {
        alive(cur) = false
        val incident = ts.byEdge(cur)
        var ti = 0
        while (ti < incident.length) {
          val tid = incident(ti)
          if (triAlive(tid)) {
            triAlive(tid) = false
            // cur is dead, so its own decrement is never read
            val a = ts.e1(tid); val b = ts.e2(tid); val c = ts.e3(tid)
            sup(a) -= 1; if (alive(a) && sup(a) < k - 2) queue += a
            sup(b) -= 1; if (alive(b) && sup(b) < k - 2) queue += b
            sup(c) -= 1; if (alive(c) && sup(c) < k - 2) queue += c
          }
          ti += 1
        }
      }
    }
    (0 until m).filter(alive).toArray
  }
}
