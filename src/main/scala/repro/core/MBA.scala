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
  * allocation-free (int arrays, a manual stack) — they dominate the
  * construction time on high-kmax graphs. The sweep reads its own copy of
  * the triangles, laid out in sweep order, and each edge's triangles as
  * `(p, f1, f2)` triples ([[TrussDecomposition.incidence]], which also
  * feeds the static trussness), `p` the triangle's sweep position and `f1`,
  * `f2` its companions, in sweep order: the invalidated triangles of an
  * edge are a prefix of its triples, which a drop steps past once.
  */
object MBA {

  def build(ts: TriangleSet): KSpanTable = {
    val m = ts.m
    val order = ts.byMtsDescending
    // edge e's triangles as (p, f1, f2) triples, p the sweep position, at
    // inc[3·first(e), 3·start(e + 1)), first(e) past the invalidated ones
    val (start, inc) = TrussDecomposition.incidence(ts, order)
    val first = java.util.Arrays.copyOf(start, m)
    val trn0 = TrussDecomposition.peel(start, inc)
    val table = KSpanTable.allocate(trn0, ts.deltaMax)
    val trn = trn0.clone()

    // position p of the sweep holds triangle order(p) as (e1, e2, e3, mts)
    // at tri[4p, 4p + 4); ks(e) = number of valid triangles containing e at
    // level trn(e)
    val tri = new Array[Int](4 * ts.size)
    val ks = new Array[Int](m)
    var i = 0
    while (i < ts.size) {
      val t = order(i)
      val a = ts.e1(t); val b = ts.e2(t); val c = ts.e3(t)
      tri(4 * i) = a; tri(4 * i + 1) = b; tri(4 * i + 2) = c; tri(4 * i + 3) = ts.mts(t)
      var lvl = trn(a)
      if (trn(b) < lvl) lvl = trn(b)
      if (trn(c) < lvl) lvl = trn(c)
      if (trn(a) == lvl) ks(a) += 1
      if (trn(b) == lvl) ks(b) += 1
      if (trn(c) == lvl) ks(c) += 1
      i += 1
    }

    // manual int stack for the drop cascade, each edge on it at most once;
    // its height is kept in slot m, so the local defs capture no var
    val stack = new Array[Int](m + 1)
    val onStack = new Array[Boolean](m)
    @inline def push(e: Int): Unit =
      if (!onStack(e)) { onStack(e) = true; stack(stack(m)) = e; stack(m) += 1 }

    // invalidate the triangle at sweep position `cur`, of mts `delta`
    def invalidate(cur: Int, delta: Int): Unit = {
      val a = tri(4 * cur); val b = tri(4 * cur + 1); val c = tri(4 * cur + 2)
      var lvl = trn(a)
      if (trn(b) < lvl) lvl = trn(b)
      if (trn(c) < lvl) lvl = trn(c)
      if (trn(a) == lvl) { ks(a) -= 1; if (ks(a) < trn(a) - 2) push(a) }
      if (trn(b) == lvl) { ks(b) -= 1; if (ks(b) < trn(b) - 2) push(b) }
      if (trn(c) == lvl) { ks(c) -= 1; if (ks(c) < trn(c) - 2) push(c) }
      while (stack(m) > 0) {
        stack(m) -= 1
        val e = stack(stack(m))
        onStack(e) = false
        if (trn(e) > 2 && ks(e) < trn(e) - 2) {
          val oldK = trn(e)
          trn(e) = oldK - 1
          table.setSpan(e, oldK, delta) // k-span for k = oldK (Lemma 4)
          var p = 3 * first(e); val end = 3 * start(e + 1)
          while (p < end && inc(p) <= cur) p += 3 // invalidated triangles
          first(e) = p / 3
          var cnt = 0 // ks(e) recount at the new level, fused into the scan
          while (p < end) {
            val f1 = inc(p + 1); val f2 = inc(p + 2)
            val mino = if (trn(f1) < trn(f2)) trn(f1) else trn(f2)
            // level drops oldK → oldK−1 iff e was the unique minimum
            if (mino >= oldK) {
              if (trn(f1) == oldK) { ks(f1) -= 1; if (ks(f1) < trn(f1) - 2) push(f1) }
              if (trn(f2) == oldK) { ks(f2) -= 1; if (ks(f2) < trn(f2) - 2) push(f2) }
            }
            if (mino >= oldK - 1) cnt += 1 // counts toward e's new level
            p += 3
          }
          ks(e) = cnt
          if (ks(e) < trn(e) - 2) push(e)
        }
      }
    }

    i = 0
    while (i < ts.size && tri(4 * i + 3) > 0) { invalidate(i, tri(4 * i + 3)); i += 1 }

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
