package repro.core.maintenance

import scala.collection.mutable
import repro.core.KSpanTable
import repro.tgraph.{TEdge, TemporalGraph}
import repro.triangles.{Mts, TriangleSet}

/** Mutable companion of a temporal graph plus its complete (k,δ)-truss
  * answer state — everything §VI's filter-and-verification algorithm reads
  * and writes: the timestamped edges and their time range, the δ-triangle
  * store `ts`, the static trussness and the k-span table.
  *
  * `ts` is the state's own copy of the [[TriangleSet]] it was seeded with,
  * and its only triangle store: [[addEdge]] appends the triangles a new
  * edge closes, [[addTimestamp]] lowers their mts in place. The seeding
  * set and table are never modified.
  *
  * Growth-only by design (the paper assumes history is immutable: edges and
  * timestamps are only inserted).
  */
final class DynamicState private (
    val eU: mutable.ArrayBuffer[Int],
    val eV: mutable.ArrayBuffer[Int],
    val eTs: mutable.ArrayBuffer[Array[Int]],
    val adjOf: mutable.ArrayBuffer[mutable.HashMap[Int, Int]], // vertex -> (nbr -> eid)
    val ts: TriangleSet,
    val trn: mutable.ArrayBuffer[Int],
    val kspan: mutable.ArrayBuffer[Array[Int]],
    private var tLo: Int,
    private var tHi: Int,
) {

  def m: Int = eU.length

  def edgeId(u: Int, v: Int): Int = {
    val (a, b) = if (u < v) (u, v) else (v, u)
    if (a >= adjOf.length) -1 else adjOf(a).getOrElse(b, -1)
  }

  def span(e: Int, k: Int): Int = kspan(e)(k - 3)
  def setSpan(e: Int, k: Int, d: Int): Unit = kspan(e)(k - 3) = d

  def ensureVertex(v: Int): Unit =
    while (adjOf.length <= v) adjOf += mutable.HashMap.empty[Int, Int]

  /** Whether timestamp `t` keeps the state's time range `[tMin, tMax]`
    * within `Int.MaxValue`, the rule of the [[TemporalGraph]] constructor
    * that keeps every mts from overflowing.
    */
  def admits(t: Int): Boolean = m == 0 || math.max(tHi, t).toLong - math.min(tLo, t) <= Int.MaxValue

  private def widen(t: Int): Unit = {
    if (m == 0) { tLo = t; tHi = t }
    else { tLo = math.min(tLo, t); tHi = math.max(tHi, t) }
  }

  /** Append a brand-new static edge (canonical `u < v`) with one timestamp;
    * registers its triangles (common-neighbor scan) and returns
    * `(edgeId, newTriangleIds)`. Trussness/k-span state is extended with
    * placeholders (`trn = 2`, empty k-span row) — the caller maintains them.
    */
  def addEdge(u: Int, v: Int, t: Int): (Int, Seq[Int]) = {
    require(u < v && edgeId(u, v) < 0)
    ensureVertex(v)
    widen(t)
    val eid = m
    eU += u; eV += v; eTs += Array(t)
    adjOf(u)(v) = eid; adjOf(v)(u) = eid
    trn += 2
    kspan += Array.emptyIntArray
    // every triangle through eid is (e1, e2, eid): eid is the largest id
    val closed = new mutable.ArrayBuilder.ofInt
    val (small, large) = if (adjOf(u).size <= adjOf(v).size) (u, v) else (v, u)
    for ((w, eSmall) <- adjOf(small) if w != u && w != v; eLarge <- adjOf(large).get(w)) {
      val a = math.min(eSmall, eLarge); val b = math.max(eSmall, eLarge)
      val mtsNew = Mts.of(eTs(a), eTs(b), eTs(eid))
      bumpDeltaUB(mtsNew)
      closed += a += b += eid += mtsNew
    }
    val first = ts.size
    ts.addEdge(closed.result())
    (eid, first until ts.size)
  }

  /** Add timestamp `t` to existing edge `e` (no-op if already present);
    * refreshes the mts of every triangle through `e` and returns the
    * triangles whose mts changed as `(tid, oldMts, newMts)`.
    */
  def addTimestamp(e: Int, t: Int): Seq[(Int, Int, Int)] = {
    val ts0 = eTs(e)
    val pos = java.util.Arrays.binarySearch(ts0, t)
    if (pos >= 0) return Seq.empty
    widen(t)
    val ins = -pos - 1
    val nts = new Array[Int](ts0.length + 1)
    System.arraycopy(ts0, 0, nts, 0, ins)
    nts(ins) = t
    System.arraycopy(ts0, ins, nts, ins + 1, ts0.length - ins)
    eTs(e) = nts
    val changed = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    for (tid <- ts.byEdge(e)) {
      val old = ts.mts(tid)
      val nu = Mts.of(eTs(ts.e1(tid)), eTs(ts.e2(tid)), eTs(ts.e3(tid)))
      if (nu != old) {
        assert(nu < old, s"mts may only shrink on timestamp insertion ($old -> $nu)")
        ts.setMts(tid, nu)
        changed += ((tid, old, nu))
      }
    }
    changed.toSeq
  }

  /** Grow the k-span row of `e` to cover `k = 3..trn(e)` after a trussness
    * increase; new top slots are initialized to `init`.
    */
  def growSpanRow(e: Int, init: Int): Unit = {
    val want = math.max(0, trn(e) - 2)
    val cur = kspan(e)
    if (cur.length < want) {
      val nu = java.util.Arrays.copyOf(cur, want)
      java.util.Arrays.fill(nu, cur.length, want, init)
      kspan(e) = nu
    }
  }

  // --- snapshots for verification against rebuild ------------------------

  def snapshotGraph: TemporalGraph =
    new TemporalGraph(Array.tabulate(m)(e => TEdge(eU(e), eV(e), eTs(e))))

  def snapshotTriangles: TriangleSet = ts.copy

  def snapshotTable: KSpanTable =
    new KSpanTable(trn.toArray, kspan.map(_.clone()).toArray, ts.deltaMax)

  /** Monotone upper bound on deltaMax (mts only shrinks; new triangles may
    * raise it) — lets [[tableView]] avoid the O(|Δ|) max scan per call.
    */
  private var deltaMaxUB: Int = ts.deltaMax

  private def bumpDeltaUB(mts: Int): Unit =
    if (mts > deltaMaxUB) deltaMaxUB = mts

  /** O(m) zero-copy view of the current k-span state (span rows shared, not
    * cloned) for incremental index refreshes; `deltaMax` is the monotone
    * upper bound, which only loosens directory sizing, never correctness.
    */
  def tableView: KSpanTable =
    new KSpanTable(trn.toArray, kspan.toArray, deltaMaxUB)
}

object DynamicState {

  /** Seed the state from an already-indexed graph. */
  def fromGraph(g: TemporalGraph, ts: TriangleSet, table: KSpanTable): DynamicState = {
    val adj = mutable.ArrayBuffer.fill(math.max(1, g.nVertexIds))(mutable.HashMap.empty[Int, Int])
    for (e <- 0 until g.m) { adj(g.edges(e).u)(g.edges(e).v) = e; adj(g.edges(e).v)(g.edges(e).u) = e }
    new DynamicState(
      mutable.ArrayBuffer.from(g.edges.map(_.u)),
      mutable.ArrayBuffer.from(g.edges.map(_.v)),
      mutable.ArrayBuffer.from(g.edges.map(_.ts.clone())),
      adj,
      ts.copy,
      mutable.ArrayBuffer.from(table.trn),
      mutable.ArrayBuffer.from(table.spans.map(_.clone())),
      g.tMin, g.tMax,
    )
  }
}
