package repro.core

import repro.triangles.TriangleSet

/** Index-free (k, δ)-truss query (§III): δ-constrained truss peeling.
  *
  * Every edge is a member of one [[LevelPeel.fixpoint]] over the triangles
  * with `mts ≤ δ`, which peels the edges whose δ-support inside the
  * survivor set falls below `k−2`. The survivors are the maximal subgraph
  * of Definition 4. Cost is dominated by triangle listing + mts evaluation,
  * which the caller amortizes through the precomputed [[TriangleSet]]
  * (built once per graph by the Spark enumerator).
  */
object OnlineQuery {

  /** Edge ids of `T_{k,δ}`, ascending. `k ≤ 2` returns every edge. */
  def query(ts: TriangleSet, k: Int, delta: Int): Array[Int] = {
    if (k <= 2) return Array.range(0, ts.m)
    val peel = new LevelPeel(ts)
    peel.begin()
    var e = 0
    while (e < ts.m) { peel.addMember(e); e += 1 }
    var tid = 0
    while (tid < ts.size) { if (ts.mts(tid) <= delta) peel.addTriangle(tid); tid += 1 }
    // the survivors come in the order the members were added
    val out = new scala.collection.mutable.ArrayBuilder.ofInt
    peel.fixpoint(k)(out += _)
    out.result()
  }
}
