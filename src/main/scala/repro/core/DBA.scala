package repro.core

import repro.triangles.TriangleSet
import repro.truss.TrussDecomposition

/** Decomposition Based Algorithm (§V-A): constructs the full k-span table
  * (equivalently, every Horizontal IES of the (k,δ)-truss graph) by
  * decrementally decomposing `T_{k,δ}` from `δ = δmax` down to 0 for each k.
  *
  * For a fixed k it starts from the static k-truss (= `T_{k,δmax}`): the
  * members are the edges with `trn ≥ k`, and the triangles are those whose
  * three edges all are members, the triangles of level `min trn ≥ k`. The
  * [[LevelPeel]] kernel, shared with §VI's verification, then invalidates
  * them in descending mts — each still-alive triangle once per k, the
  * paper's de-duplication trick — and peels the edges whose δ-support drops
  * below `k−2`. An edge peeled during step δ belongs to `T_{k,δ}` but not
  * `T_{k,δ−1}`, i.e. its k-span is δ; survivors at δ = 0 have k-span 0.
  *
  * Like [[MBA]], [[build]] runs this per-k loop ([[decompose]], the
  * kernel, with its own [[LevelPeel]]) on each part of [[Split]] in
  * parallel, and [[KSpanTable.union]] makes the parts' tables one, so
  * Fig 14 compares the two sweeps through the same split: a part's loop
  * stops at the part's own kmax.
  */
object DBA {

  /** The k-span table of `ts`, [[decompose]] run on each part of [[Split]]. */
  def build(ts: TriangleSet): KSpanTable = Split.build(ts)(decompose)

  /** The per-k decomposition of all of `ts` at once: the kernel [[build]]
    * runs on each part.
    */
  private[repro] def decompose(ts: TriangleSet): KSpanTable = {
    val trn = TrussDecomposition.trussness(ts)
    val table = KSpanTable.allocate(trn, ts.deltaMax)

    // the sweep order and each triangle's level; the triangles of level
    // ≥ k are kept at the front, in sweep order, as k rises
    val order = ts.byMtsDescending
    val level = order.map(tid => math.min(trn(ts.e1(tid)), math.min(trn(ts.e2(tid)), trn(ts.e3(tid)))))
    var n = order.length
    val peel = new LevelPeel(ts)
    for (k <- 3 to table.kMax) {
      peel.begin()
      var e = 0
      while (e < ts.m) { if (trn(e) >= k) peel.addMember(e); e += 1 }
      var kept = 0
      var i = 0
      while (i < n) {
        val tid = order(i)
        if (level(i) >= k) {
          order(kept) = tid; level(kept) = level(i); kept += 1
          peel.addTriangle(tid)
        }
        i += 1
      }
      n = kept
      peel.run(k, floor = 0)((e, d) => table.setSpan(e, k, d))
    }
    table
  }
}
