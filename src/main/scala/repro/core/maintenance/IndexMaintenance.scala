package repro.core.maintenance

import repro.tgraph.TemporalGraph
import repro.truss.TrussInsert

/** Dynamic index maintenance (§VI): on inserting a temporal edge
  * `(u, v, t)`, find the (small) set of `(edge, k)` entries whose k-span
  * changes and update only those, instead of rebuilding the index.
  *
  * Pipeline per Algorithm 2:
  *
  *  1. **Filter of k** (Theorem 5): only `3 ≤ k ≤ trn(e0, G+)` can change.
  *     For a brand-new static edge, static trussness is first maintained
  *     with [[TrussInsert]] on the state's [[repro.core.LevelPeel]]; edges
  *     whose trussness rises to `k` (the `L_Ek` sets of Definition 11) get
  *     a fresh level-`k` slot initialized to the upper-bound estimate of
  *     Definition 12 / Lemma 7. Both kinds of insertion then hand steps 2–4
  *     one candidate list of triangles, each with its mts before the
  *     insertion and the level above which it is new to the k-world: the
  *     smallest old trussness of its edges, `e0` counting as 2. Above that
  *     level the triangle is treated as dropping from `mts = ∞`, which
  *     reduces edge insertion to the timestamp-insertion machinery.
  *  2. **Filter of k-span** (Lemmas 5–6): at each k, the candidate
  *     triangles of the k-world that cannot lower any k-span are discarded
  *     (one that is neither new to the k-world nor of lowered mts never
  *     can); the survivors yield the affected
  *     interval `[δ−, δ+]` (we merge all per-triangle intervals into one —
  *     a superset of the paper's disjoint-interval union, trading a little
  *     verification work for a simpler invariant).
  *  3. **Filter of edge / GAS** (Algorithm 1): BFS from the affected
  *     triangles through triangles of k-rank ≤ δ+, collecting the region of
  *     edges with current k-span inside the interval plus the local
  *     δ-triangle list, marked in the stamped arrays of the state's
  *     [[repro.core.LevelPeel]].
  *  4. **Verification**: run the [[repro.core.LevelPeel]] kernel, DBA's
  *     `decomph` peeling, on the region from δ+ down to δ−. Edges outside
  *     the region that appear in local triangles necessarily have
  *     k-span < δ− and act as fixed boundary support.
  *     An edge peeled while invalidating `mts = δ` triangles has new k-span
  *     δ; survivors at the bottom have new k-span δ− (their k-span cannot
  *     drop below δ−, the smallest new mts among affected triangles).
  */
object IndexMaintenance {

  /** What one insertion touched (for tests and the maintenance bench). */
  final case class InsertReport(
      newStaticEdge: Boolean,
      verifiedKs: Int,
      regionEdgesTotal: Int,
      changedSpans: Int,
      /** k levels whose I_k row membership or edge positions changed, a
        * counter of the report: the table's level orders have already
        * moved, so a TC-Index over the table needs no refresh. */
      changedLevels: Set[Int],
      /** triangles whose mts changed or that may enter a k-world */
      candidateTris: Int,
      /** (candidate, level) pairs in the k-world that Lemma 5 discarded */
      lemma5Skips: Int,
      /** local δ-triangles of the verified levels, summed */
      regionTris: Int,
      /** nanoseconds per phase; moves of the table's level orders are
        * counted in `orderMoveNs` alone, not in the phase that made them.
        * Step 1, filter of k: [[TrussInsert]] and the Lemma-7 estimates
        * of the new slots (0 for a timestamp insertion) */
      trussInsertNs: Long,
      /** step 2, the Lemma-5 filter of every level */
      lemma5Ns: Long,
      /** step 3, GAS of every verified level */
      gasNs: Long,
      /** step 4, the level peel of every verified level */
      peelNs: Long,
      /** the level-order moves of the table's changed and new entries */
      orderMoveNs: Long,
  )

  /** Insert temporal edge `(u, v, t)` and restore the full k-span state.
    * Throws `IllegalArgumentException`, with the state untouched, on a self
    * loop, a vertex id outside `[0, Int.MaxValue)`, or a `t` that would
    * widen the state's time range past `Int.MaxValue`.
    */
  def insert(st: DynamicState, uRaw: Int, vRaw: Int, t: Int): InsertReport = {
    require(uRaw != vRaw, "self loops are not part of the model")
    require(TemporalGraph.validVertex(uRaw) && TemporalGraph.validVertex(vRaw),
      s"vertex ids must lie in [0, Int.MaxValue), got ($uRaw, $vRaw)")
    require(st.admits(t), s"timestamp $t widens the time range past Int.MaxValue; time spans would overflow")
    val (u, v) = if (uRaw < vRaw) (uRaw, vRaw) else (vRaw, uRaw)
    val table = st.tableView
    val moves0 = table.orderMoveNanos
    val existing = st.edgeId(u, v)
    if (existing >= 0) {
      val (tids, oldMts) = st.addTimestamp(existing, t)
      maintainSpans(st, newStaticEdge = false, kHigh = table.trn(existing), tids, oldMts, table.trn(_), 0L, moves0)
    } else {
      val (e0, newTris) = st.addEdge(u, v, t)

      // --- static trussness maintenance (filter of k) --------------------
      val t0 = System.nanoTime()
      val upgraded = TrussInsert.maintain(st.ts, st.levelPeel, table.trn, e0)
      val kHigh = table.trn(e0)
      java.util.Arrays.sort(upgraded)
      // each upgraded edge rose by exactly one level
      def oldTrn(e: Int): Int =
        if (e == e0) 2
        else if (java.util.Arrays.binarySearch(upgraded, e) >= 0) table.trn(e) - 1
        else table.trn(e)

      for (k <- 3 to kHigh) estimateSpans(st, k, e0 +: upgraded.filter(table.trn(_) == k), oldTrn(_) < k)
      val trussInsertNs = System.nanoTime() - t0 - (table.orderMoveNanos - moves0)

      // candidate triangles: the new ones through e0 (entering every
      // k-world), plus pre-existing triangles that may enter the k-world of
      // an upgraded edge's new level; all keep their mts, so Lemma 5 skips
      // every one that is not new to the k-world
      val cand = new java.util.BitSet
      for (tid <- newTris) cand.set(tid)
      for (e <- upgraded; tid <- st.ts.byEdge(e)) cand.set(tid)
      val tids = cand.stream.toArray
      maintainSpans(st, newStaticEdge = true, kHigh, tids, tids.map(st.ts.mts), oldTrn, trussInsertNs, moves0)
    }
  }

  /** Upper-bound k-span estimates for the level-`k` "newish" edges (Def. 12
    * / Lemma 7): `e0` and the entrants whose trussness rose to `k`, the
    * k-world edges of old trussness below k. e0 and the level-k entrants are
    * mutually dependent — an entrant may owe its membership to e0 and vice
    * versa — so one joint bound is computed over the whole newish
    * component and written as the k-span of each newish edge: every newish
    * edge belongs to `T_{k,δ̄}` for `δ̄ = max(t1, t2)` with `t1` the largest
    * mts of a triangle of the new k-truss touching a newish edge and `t2`
    * the largest current k-span among settled companions in those
    * triangles — at that δ every such triangle is valid and every settled
    * companion is already a member, so the newish edges support each other
    * exactly as in the new k-truss. The fixpoint argument of Lemma 7
    * applies verbatim to the union.
    */
  private def estimateSpans(st: DynamicState, k: Int, newish: Array[Int], isNewish: Int => Boolean): Unit = {
    var bound = 0
    var found = false
    val ts = st.ts
    val table = st.tableView
    // a settled companion has a k-span at k: a row not yet grown lacks only
    // its entrant's new top level, and the level-k entrants are newish
    def settled(f: Int): Unit = if (!isNewish(f) && table.span(f, k) > bound) bound = table.span(f, k)
    for (e <- newish; tid <- ts.byEdge(e)) {
      var a = ts.e1(tid); var b = ts.e2(tid)
      if (a == e) a = ts.e3(tid) else if (b == e) b = ts.e3(tid)
      if (table.trn(a) >= k && table.trn(b) >= k) {
        found = true
        if (ts.mts(tid) > bound) bound = ts.mts(tid)
        settled(a); settled(b)
      }
    }
    assert(found, s"no k-world triangle touches the newish edges at k=$k")
    for (e <- newish) { table.growRow(e, bound); table.setSpan(e, k, bound) }
  }

  /** Steps 2–4 for every k from `kHigh` down to 3. Candidate `tids(i)` had
    * mts `oldMts(i)` before the insertion, and is new to the k-world of
    * every k above the smallest old trussness `oldTrn` of its edges. Step 1
    * took `trussInsertNs`, and the table's move clock read `moves0` before
    * it.
    */
  private def maintainSpans(
      st: DynamicState,
      newStaticEdge: Boolean,
      kHigh: Int,
      tids: Array[Int],
      oldMts: Array[Int],
      oldTrn: Int => Int,
      trussInsertNs: Long,
      moves0: Long,
  ): InsertReport = {
    val ts = st.ts
    val table = st.tableView
    var lemma5Ns = 0L
    var gasNs = 0L
    var peelNs = 0L
    val newAbove = tids.map(tid => math.min(oldTrn(ts.e1(tid)), math.min(oldTrn(ts.e2(tid)), oldTrn(ts.e3(tid)))))
    val kept = new Array[Int](tids.length)
    val changedAt = new Array[Int](kHigh + 1)
    var verifiedKs = 0
    var regionEdges = 0
    var regionTris = 0
    var skips = 0
    var k = kHigh
    while (k >= 3) {
      // --- filter of k-span (Lemma 5) ----------------------------------
      val t0 = System.nanoTime()
      var nKept = 0
      var dPlus = -1
      var dMinus = Int.MaxValue
      for (i <- tids.indices) {
        val tid = tids(i)
        val a = ts.e1(tid); val b = ts.e2(tid); val c = ts.e3(tid)
        if (table.trn(a) >= k && table.trn(b) >= k && table.trn(c) >= k) {
          val dm = math.max(table.span(a, k), math.max(table.span(b, k), table.span(c, k)))
          val mtsNew = ts.mts(tid)
          // Lemma 5 skip: an already-valid-below-δm or still-above-δm
          // triangle changes nothing; for a triangle new to the k-world the
          // equality case must be kept (its edges' span entries are only
          // estimates that still need verification).
          val skip =
            if (newAbove(i) < k) mtsNew > dm
            else oldMts(i) < dm || mtsNew >= dm
          if (skip) skips += 1
          else {
            kept(nKept) = tid; nKept += 1
            if (dm > dPlus) dPlus = dm
            if (mtsNew < dMinus) dMinus = mtsNew
          }
        }
      }
      val t1 = System.nanoTime()
      lemma5Ns += t1 - t0
      if (nKept > 0) {
        verifiedKs += 1
        gas(st, k, kept, nKept, dMinus, dPlus)
        val t2 = System.nanoTime()
        gasNs += t2 - t1
        val moves = table.orderMoveNanos
        changedAt(k) = peelLevel(st, k, dMinus)
        peelNs += System.nanoTime() - t2 - (table.orderMoveNanos - moves)
        regionEdges += st.levelPeel.memberCount
        regionTris += st.levelPeel.triangleCount
      }
      k -= 1
    }
    // a new static edge joins every row k ≤ trn(e0); entrants join theirs
    InsertReport(newStaticEdge, verifiedKs, regionEdges, changedSpans = changedAt.sum,
      changedLevels = (3 to kHigh).filter(k => newStaticEdge || changedAt(k) > 0).toSet,
      candidateTris = tids.length, lemma5Skips = skips, regionTris = regionTris,
      trussInsertNs = trussInsertNs, lemma5Ns = lemma5Ns, gasNs = gasNs, peelNs = peelNs,
      orderMoveNs = table.orderMoveNanos - moves0)
  }

  /** GAS (Algorithm 1) for one k level: marks the region's edges as the
    * members of the state's [[LevelPeel]] and the local δ-triangle list as
    * its triangles, starting from the first `nSeeds` of `seedTris`.
    */
  private def gas(st: DynamicState, k: Int, seedTris: Array[Int], nSeeds: Int,
                  dMinus: Int, dPlus: Int): Unit = {
    val ts = st.ts
    val table = st.tableView
    val peel = st.levelPeel
    @inline def inKWorld(e: Int): Boolean = table.trn(e) >= k
    @inline def reach(e: Int): Unit = {
      val d = table.span(e, k)
      if (d >= dMinus && d <= dPlus) peel.addMember(e)
    }

    // --- region BFS over the members as they are added ------------------
    peel.begin()
    for (i <- 0 until nSeeds) { val tid = seedTris(i); reach(ts.e1(tid)); reach(ts.e2(tid)); reach(ts.e3(tid)) }
    var next = 0
    while (next < peel.memberCount) {
      val incident = ts.byEdge(peel.member(next))
      next += 1
      var ti = 0
      while (ti < incident.length) {
        val tid = incident(ti)
        val a = ts.e1(tid); val b = ts.e2(tid); val c = ts.e3(tid)
        if (inKWorld(a) && inKWorld(b) && inKWorld(c)) {
          val rank = math.max(ts.mts(tid),
            math.max(table.span(a, k), math.max(table.span(b, k), table.span(c, k))))
          if (rank <= dPlus) {
            peel.addTriangle(tid)
            reach(a); reach(b); reach(c)
          }
        }
        ti += 1
      }
    }
  }

  /** The local [[LevelPeel]] verification of the region [[gas]] marked,
    * with `δ−` as its floor. Returns the number of changed k-spans.
    */
  private def peelLevel(st: DynamicState, k: Int, dMinus: Int): Int = {
    val table = st.tableView
    val peel = st.levelPeel
    // --- local peel from δ+ down to δ− ----------------------------------
    // every local triangle has mts ≤ rank ≤ δ+, so all start valid
    peel.sortTriangles()
    var changed = 0
    peel.run(k, floor = dMinus) { (e, nu) =>
      val old = table.span(e, k)
      assert(nu <= old, s"k-span may only shrink on insertion: edge $e k=$k $old -> $nu")
      if (nu != old) { table.setSpan(e, k, nu); changed += 1 }
    }
    changed
  }
}
