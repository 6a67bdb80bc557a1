package repro.core.maintenance

import scala.collection.mutable
import repro.core.{KSpanTable, LevelPeel}
import repro.tgraph.{TEdge, TemporalGraph}
import repro.tgraph.TemporalGraph.{eidOf, nbrOf}
import repro.triangles.{Mts, TriangleSet}

/** Mutable companion of a temporal graph plus its complete (k,δ)-truss
  * answer state — everything §VI's filter-and-verification algorithm reads
  * and writes: the timestamped edges and their time range, the adjacency,
  * the δ-triangle store `ts` and the k-span table `tableView`.
  *
  * The state is kept in the formats of the static build:
  *  - `edges` are the graph's [[TEdge]]s, edge id = index;
  *  - the adjacency is [[TemporalGraph.adj]]'s packed, neighbor-sorted
  *    `(nbr << 32) | eid` rows, looked up and grown through the
  *    [[TemporalGraph]] companion;
  *  - `ts` is the state's own copy of the [[TriangleSet]] it was seeded
  *    with: [[addEdge]] appends the triangles a new edge closes,
  *    [[addTimestamp]] lowers their mts in place;
  *  - `tableView` is the state's own copy of the [[KSpanTable]] it was
  *    seeded with, grown by [[addEdge]] and repaired in place by
  *    [[IndexMaintenance]]; its level orders move with every repair. It is
  *    returned without a copy and changes with every insertion: a
  *    [[repro.core.TCIndex]] over it is a view that stays current, and DC
  *    is derived from it again after each insertion. Its `deltaMax` is an
  *    upper bound of the largest mts. [[snapshotTable]] is the
  *    independent, exact copy.
  *
  * Adjacency rows, timestamp arrays and triangle rows are replaced when they
  * grow, never written in place, so the seeding graph, triangle set and
  * table are never modified.
  *
  * Growth-only by design (the paper assumes history is immutable: edges and
  * timestamps are only inserted).
  */
final class DynamicState private (
    private var adj: Array[Array[Long]],
    val edges: mutable.ArrayBuffer[TEdge],
    val ts: TriangleSet,
    val tableView: KSpanTable,
    private var tLo: Int,
    private var tHi: Int,
) {

  def m: Int = edges.length

  /** The scratch of §VI's peels: [[repro.truss.TrussInsert]]'s candidate
    * search and support fixpoint, and GAS and the level peel of
    * [[IndexMaintenance]], mark their edges and triangles in it.
    */
  private[maintenance] val levelPeel = new LevelPeel(ts)

  /** The packed adjacency row of vertex `v` (empty for an unseen vertex). */
  def adjRow(v: Int): Array[Long] = if (v < adj.length) adj(v) else Array.emptyLongArray

  def edgeId(u: Int, v: Int): Int = TemporalGraph.edgeId(adj, u, v)

  /** Whether timestamp `t` keeps the state's time range `[tMin, tMax]`
    * within `Int.MaxValue`: [[TemporalGraph.spanFits]], the rule of the
    * [[TemporalGraph]] constructor that keeps every mts from overflowing.
    */
  def admits(t: Int): Boolean = m == 0 || TemporalGraph.spanFits(math.min(tLo, t), math.max(tHi, t))

  private def widen(t: Int): Unit = {
    if (m == 0) { tLo = t; tHi = t }
    else { tLo = math.min(tLo, t); tHi = math.max(tHi, t) }
  }

  /** Append a brand-new static edge (canonical `u < v`) with one timestamp;
    * registers its triangles (sorted merge of the endpoint rows) and returns
    * `(edgeId, newTriangleIds)`. The table gets the edge with `trn = 2` and
    * an empty k-span row — the caller maintains them.
    */
  def addEdge(u: Int, v: Int, t: Int): (Int, Seq[Int]) = {
    require(u >= 0 && u < v && TemporalGraph.validVertex(v) && edgeId(u, v) < 0)
    if (v >= adj.length) adj = Array.tabulate(math.max(v + 1, 2 * adj.length))(adjRow)
    widen(t)
    val eid = m
    edges += TEdge(u, v, Array(t))
    tableView.appendEdge()
    // every triangle through eid is (e1, e2, eid): eid is the largest id
    val closed = new mutable.ArrayBuilder.ofInt
    val ru = adjRow(u); val rv = adjRow(v)
    var i = 0; var j = 0
    while (i < ru.length && j < rv.length) {
      val d = nbrOf(ru(i)) - nbrOf(rv(j))
      if (d < 0) i += 1
      else if (d > 0) j += 1
      else { // common neighbor
        val eu = eidOf(ru(i)); val ev = eidOf(rv(j))
        val a = math.min(eu, ev); val b = math.max(eu, ev)
        val mtsNew = Mts.of(edges(a).ts, edges(b).ts, edges(eid).ts)
        tableView.raiseDeltaMax(mtsNew)
        closed += a += b += eid += mtsNew
        i += 1; j += 1
      }
    }
    adj(u) = TemporalGraph.withNeighbor(adj(u), v, eid)
    adj(v) = TemporalGraph.withNeighbor(adj(v), u, eid)
    val first = ts.size
    ts.addEdge(closed.result())
    (eid, first until ts.size)
  }

  /** Add timestamp `t` to existing edge `e` (no-op if already present);
    * refreshes the mts of every triangle through `e` and returns the
    * triangles whose mts changed, and their mts before the change, as two
    * parallel arrays.
    */
  def addTimestamp(e: Int, t: Int): (Array[Int], Array[Int]) = {
    val ts0 = edges(e).ts
    val pos = java.util.Arrays.binarySearch(ts0, t)
    if (pos >= 0) return (Array.emptyIntArray, Array.emptyIntArray)
    widen(t)
    val ins = -pos - 1
    val nts = java.util.Arrays.copyOf(ts0, ts0.length + 1)
    System.arraycopy(ts0, ins, nts, ins + 1, ts0.length - ins)
    nts(ins) = t
    edges(e) = edges(e).copy(ts = nts)
    val tids = new mutable.ArrayBuilder.ofInt
    val oldMts = new mutable.ArrayBuilder.ofInt
    for (tid <- ts.byEdge(e)) {
      val old = ts.mts(tid)
      val nu = Mts.of(edges(ts.e1(tid)).ts, edges(ts.e2(tid)).ts, edges(ts.e3(tid)).ts)
      if (nu != old) {
        assert(nu < old, s"mts may only shrink on timestamp insertion ($old -> $nu)")
        ts.setMts(tid, nu)
        tids += tid
        oldMts += old
      }
    }
    (tids.result(), oldMts.result())
  }

  // --- snapshots for verification against rebuild ------------------------

  def snapshotGraph: TemporalGraph = new TemporalGraph(edges.toArray)

  def snapshotTriangles: TriangleSet = ts.copy

  /** An independent, exact copy of the live table, with the exact
    * `deltaMax` of the triangles.
    */
  def snapshotTable: KSpanTable = tableView.copy(ts.deltaMax)
}

object DynamicState {

  /** Seed the state from an already-indexed graph. */
  def fromGraph(g: TemporalGraph, ts: TriangleSet, table: KSpanTable): DynamicState =
    new DynamicState(
      g.adj.clone(),
      mutable.ArrayBuffer.from(g.edges),
      ts.copy,
      table.copy(),
      g.tMin, g.tMax,
    )
}
