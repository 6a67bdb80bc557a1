package repro.core

import repro.triangles.TriangleSet
import repro.truss.TrussDecomposition

/** Maintenance Based Algorithm (§V-B): constructs the k-span table in a
  * single sweep over δ by maintaining the trussness of **all** edges
  * simultaneously while triangles are invalidated in descending order of
  * minimum time span.
  *
  * Invariant: after all triangles with `mts > δ` have been invalidated,
  * `trn(e)` equals the δ-trussness of `e` — so when `trn(e)` drops from `k`
  * to `k−1` while triangles of `mts = δ` are invalidated, the k-span of `e`
  * is exactly δ (Lemma 4: this edge is the H-IES between `T_{k,δ}` and
  * `T_{k,δ−1}`), and the V-IES at any δ can be read off the current
  * trussness values. Unlike DBA each triangle is invalidated once overall,
  * not once per k.
  *
  * Per-triangle invalidation follows Lemmas 1–3 with the stricter k-support
  * `ks(e) = #{Δ ∋ e valid : L(Δ) = trn(e)}` (the number of triangles
  * containing `e` inside `e`'s own trn-truss, always ≥ trn(e)−2): only
  * edges at the triangle's level are touched, and trussness drops propagate
  * by a BFS over same-level triangles. The inner loops are written
  * allocation-free (the store's flat accessors, int arrays, a manual
  * stack) — they dominate the construction time on high-kmax graphs.
  */
object MBA {

  def build(ts: TriangleSet): KSpanTable = {
    val m = ts.m
    val trn0 = TrussDecomposition.trussness(ts)
    val table = KSpanTable.allocate(trn0, ts.deltaMax)

    val trn = trn0.clone()
    val nTri = ts.size
    val valid = new Array[Boolean](nTri)
    java.util.Arrays.fill(valid, true)

    // ks(e) = number of valid triangles containing e at level trn(e)
    val ks = new Array[Int](m)
    var i = 0
    while (i < nTri) {
      val a = ts.e1(i); val b = ts.e2(i); val c = ts.e3(i)
      var lvl = trn(a)
      if (trn(b) < lvl) lvl = trn(b)
      if (trn(c) < lvl) lvl = trn(c)
      if (trn(a) == lvl) ks(a) += 1
      if (trn(b) == lvl) ks(b) += 1
      if (trn(c) == lvl) ks(c) += 1
      i += 1
    }

    // manual int stack for the drop cascade
    var stack = new Array[Int](1024)
    var top = 0
    @inline def push(e: Int): Unit = {
      if (top == stack.length) stack = java.util.Arrays.copyOf(stack, stack.length * 2)
      stack(top) = e; top += 1
    }

    def invalidate(tid: Int, delta: Int): Unit = {
      valid(tid) = false
      val a = ts.e1(tid); val b = ts.e2(tid); val c = ts.e3(tid)
      var lvl = trn(a)
      if (trn(b) < lvl) lvl = trn(b)
      if (trn(c) < lvl) lvl = trn(c)
      if (trn(a) == lvl) { ks(a) -= 1; if (ks(a) < trn(a) - 2) push(a) }
      if (trn(b) == lvl) { ks(b) -= 1; if (ks(b) < trn(b) - 2) push(b) }
      if (trn(c) == lvl) { ks(c) -= 1; if (ks(c) < trn(c) - 2) push(c) }
      while (top > 0) {
        top -= 1
        val e = stack(top)
        if (trn(e) > 2 && ks(e) < trn(e) - 2) {
          val oldK = trn(e)
          trn(e) = oldK - 1
          table.setSpan(e, oldK, delta) // k-span for k = oldK (Lemma 4)
          val incident = ts.byEdge(e)
          var cnt = 0 // ks(e) recount at the new level, fused into the scan
          var ti = 0
          while (ti < incident.length) {
            val tid2 = incident(ti)
            if (valid(tid2)) {
              // companions of e in tid2
              var f1 = ts.e1(tid2); var f2 = ts.e2(tid2)
              if (f1 == e) f1 = ts.e3(tid2) else if (f2 == e) f2 = ts.e3(tid2)
              val mino = if (trn(f1) < trn(f2)) trn(f1) else trn(f2)
              // level drops oldK → oldK−1 iff e was the unique minimum
              if (mino >= oldK) {
                if (trn(f1) == oldK) { ks(f1) -= 1; if (ks(f1) < trn(f1) - 2) push(f1) }
                if (trn(f2) == oldK) { ks(f2) -= 1; if (ks(f2) < trn(f2) - 2) push(f2) }
              }
              if (mino >= oldK - 1) cnt += 1 // counts toward e's new level
            }
            ti += 1
          }
          ks(e) = cnt
          if (ks(e) < trn(e) - 2) push(e)
        }
      }
    }

    val order = ts.byMtsDescending
    i = 0
    while (i < order.length && ts.mts(order(i)) > 0) { invalidate(order(i), ts.mts(order(i))); i += 1 }

    // survivors of the whole sweep are in T_{k,0} for every k ≤ trn_0(e)
    var e = 0
    while (e < m) {
      var k = 3
      while (k <= trn(e)) { table.setSpan(e, k, 0); k += 1 }
      e += 1
    }
    table
  }
}
