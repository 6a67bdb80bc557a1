package repro.tgraph

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.tgraph.TemporalGraph.{eidOf, nbrOf}

/** A temporal edge `(u, v, τ)` in canonical form: `u < v`, both valid
  * vertex ids, and `ts` sorted, distinct and non-empty (Preliminaries §II
  * of the paper).
  */
final case class TEdge(u: Int, v: Int, ts: Array[Int]) {
  require(u >= 0 && u < v && TemporalGraph.validVertex(v),
    s"temporal edge must be canonical (0 ≤ u < v < Int.MaxValue), got ($u, $v)")
  require(ts.nonEmpty, s"temporal edge ($u, $v) must carry at least one timestamp")
  require({ var i = 1; while (i < ts.length && ts(i - 1) < ts(i)) i += 1; i >= ts.length },
    s"temporal edge ($u, $v) must carry its timestamps sorted and distinct, got ${ts.mkString("[", ", ", "]")}")
}

/** Immutable driver-side temporal graph `G_t = (V, E, Γ)`.
  *
  * Edges are identified by their index in `edges`; all peeling and
  * maintenance algorithms operate on these integer edge ids. Adjacency is
  * stored per vertex as a neighbor-sorted array of `(neighbor << 32) | edgeId`
  * packed longs, which makes sorted-merge intersection (triangle listing)
  * allocation-free.
  */
final class TemporalGraph(val edges: Array[TEdge]) {

  require(TemporalGraph.spanFits(tMin, tMax),
    s"timestamp range [$tMin, $tMax] is wider than Int.MaxValue; time spans would overflow")

  /** Number of static edges `|E|`. */
  def m: Int = edges.length

  /** One-past-the-max vertex id; vertex ids are dense `[0, nVertexIds)`. */
  val nVertexIds: Int = { var top = -1; edges.foreach(e => top = math.max(top, e.v)); top + 1 }

  /** Packed adjacency: `adj(v)` holds `(neighbor << 32) | edgeId`, sorted by
    * neighbor. Covers both directions of each undirected edge. Throws
    * `IllegalArgumentException` if two edges join the same pair.
    */
  val adj: Array[Array[Long]] = TemporalGraph.adjacency(edges, nVertexIds)

  /** Edge id of the pair `{u, v}` in either orientation, or -1 if absent. */
  def edgeId(u: Int, v: Int): Int = TemporalGraph.edgeId(adj, u, v)

  /** Smallest timestamp in the graph (0 for an empty graph). */
  lazy val tMin: Int = range._1

  /** Largest timestamp in the graph (0 for an empty graph). */
  lazy val tMax: Int = range._2

  private lazy val range: (Int, Int) = TemporalGraph.timeRange(edges)
}

object TemporalGraph {

  @inline def nbrOf(packed: Long): Int = (packed >>> 32).toInt
  @inline def eidOf(packed: Long): Int = (packed & 0xffffffffL).toInt

  /** Whether `v` can be a vertex id: ids index arrays of `max id + 1`
    * entries, so `Int.MaxValue` is out.
    */
  def validVertex(v: Int): Boolean = v >= 0 && v < Int.MaxValue

  /** Whether the time range `[tMin, tMax]` fits in an Int: every span
    * `t − t'` (mts, δ) is one, so a graph and a maintained state hold only
    * ranges that fit.
    */
  def spanFits(tMin: Int, tMax: Int): Boolean = tMax.toLong - tMin <= Int.MaxValue

  // (tMin, tMax) of `edges`, in one loop over their first and last
  // timestamps. Not in the lazy val's body: HotSpot 17 declines to compile
  // a loop there on stack ("stack not empty at OSR entry point")
  private def timeRange(edges: Array[TEdge]): (Int, Int) = if (edges.isEmpty) (0, 0) else {
    var lo = Int.MaxValue; var hi = Int.MinValue
    var i = 0
    while (i < edges.length) {
      val ts = edges(i).ts
      if (ts(0) < lo) lo = ts(0)
      if (ts(ts.length - 1) > hi) hi = ts(ts.length - 1)
      i += 1
    }
    (lo, hi)
  }

  // [[TemporalGraph.adj]]. Built in this method, not in the constructor
  // body: on wikitalk-lite (HotSpot 17, 4 vCPUs) the same loops took about
  // 15 ms longer in the constructor, which runs once per graph
  private def adjacency(edges: Array[TEdge], nVertexIds: Int): Array[Array[Long]] = {
    val deg = new Array[Int](nVertexIds)
    var eid = 0
    while (eid < edges.length) { deg(edges(eid).u) += 1; deg(edges(eid).v) += 1; eid += 1 }
    val out = Array.tabulate(nVertexIds)(v => new Array[Long](deg(v)))
    val fill = new Array[Int](nVertexIds)
    eid = 0
    while (eid < edges.length) {
      val e = edges(eid)
      out(e.u)(fill(e.u)) = (e.v.toLong << 32) | eid.toLong; fill(e.u) += 1
      out(e.v)(fill(e.v)) = (e.u.toLong << 32) | eid.toLong; fill(e.v) += 1
      eid += 1
    }
    var v = 0
    while (v < nVertexIds) {
      val row = out(v)
      java.util.Arrays.sort(row)
      // a static pair is one edge: each neighbor once per row
      var i = 1
      while (i < row.length) {
        require(nbrOf(row(i - 1)) != nbrOf(row(i)),
          s"a static pair is given twice, as edges ${eidOf(row(i - 1))} and ${eidOf(row(i))}")
        i += 1
      }
      v += 1
    }
    out
  }

  /** Edge id of `{u, v}` in packed adjacency rows laid out like
    * [[TemporalGraph.adj]], or -1 if absent or if either id is out of range:
    * a binary search of `v`'s first entry in the row of the lower endpoint.
    */
  def edgeId(adj: Array[Array[Long]], u: Int, v: Int): Int = {
    val a = math.min(u, v); val b = math.max(u, v)
    if (a < 0 || b >= adj.length) -1
    else {
      val row = adj(a)
      val i = java.util.Arrays.binarySearch(row, b.toLong << 32)
      val p = if (i >= 0) i else -i - 1
      if (p < row.length && nbrOf(row(p)) == b) eidOf(row(p)) else -1
    }
  }

  /** A new row: `row` with the entry of neighbor `nbr` over edge `eid`,
    * which it must not hold yet, inserted at its sorted position. `row`
    * itself is not written.
    */
  def withNeighbor(row: Array[Long], nbr: Int, eid: Int): Array[Long] = {
    val entry = (nbr.toLong << 32) | eid.toLong
    val p = -java.util.Arrays.binarySearch(row, entry) - 1
    val out = java.util.Arrays.copyOf(row, row.length + 1)
    System.arraycopy(row, p, out, p + 1, row.length - p)
    out(p) = entry
    out
  }

  /** Build from raw interaction triples `(u, v, t)`: canonicalizes pairs,
    * drops self loops, dedupes and sorts timestamps per static edge. Edge
    * ids follow the lexicographic order of `(u, v)`. Throws
    * `IllegalArgumentException` on a vertex id outside `[0, Int.MaxValue)`.
    *
    * Interactions are bucketed by their lower endpoint; each bucket holds
    * `(hi << 32) | (t ^ Int.MinValue)` longs, whose sort orders by `hi`,
    * then by signed `t`, so each static edge is one run of equal `hi`.
    */
  def fromInteractions(rows: Iterable[(Int, Int, Int)]): TemporalGraph = {
    // the one pass over the tuples: the non-loops as (lower, higher, t)
    // columns. A closure, not a loop of this method: called per tuple, it
    // is compiled within the first call, where a loop waits for on-stack
    // replacement
    val cols = new Columns(math.max(16, rows.knownSize))
    rows.foreach { case (u, v, t) =>
      if (u != v) {
        require(validVertex(u) && validVertex(v), s"vertex ids must lie in [0, Int.MaxValue), got ($u, $v)")
        cols.add(math.min(u, v), math.max(u, v), t)
      }
    }
    val n = cols.n; val maxLo = cols.maxLo; val los = cols.lo; val his = cols.hi; val tss = cols.t
    // start(lo) .. start(lo + 1) is the bucket of lower endpoint lo
    val start = new Array[Int](maxLo + 2)
    var r = 0
    while (r < n) { start(los(r) + 1) += 1; r += 1 }
    var lo = 0
    while (lo <= maxLo) { start(lo + 1) += start(lo); lo += 1 }
    val fill = java.util.Arrays.copyOf(start, maxLo + 1)
    val keys = new Array[Long](n)
    r = 0
    while (r < n) {
      keys(fill(los(r))) = (his(r).toLong << 32) | ((tss(r) ^ Int.MinValue) & 0xffffffffL)
      fill(los(r)) += 1
      r += 1
    }
    val es = Array.newBuilder[TEdge]
    lo = 0
    while (lo <= maxLo) {
      java.util.Arrays.sort(keys, start(lo), start(lo + 1))
      // compact the bucket's duplicate keys in place, to keys[start(lo), end)
      var end = start(lo)
      r = start(lo)
      while (r < start(lo + 1)) {
        if (end == start(lo) || keys(r) != keys(end - 1)) { keys(end) = keys(r); end += 1 }
        r += 1
      }
      var i = start(lo)
      while (i < end) {
        val hi = (keys(i) >>> 32).toInt
        var j = i + 1
        while (j < end && (keys(j) >>> 32).toInt == hi) j += 1
        val ts = new Array[Int](j - i)
        var k = 0
        while (k < ts.length) { ts(k) = keys(i + k).toInt ^ Int.MinValue; k += 1 }
        es += TEdge(lo, hi, ts)
        i = j
      }
      lo += 1
    }
    new TemporalGraph(es.result())
  }

  /** Interactions as three growing int columns, and the largest `lo`. */
  private final class Columns(cap: Int) {
    var lo = new Array[Int](cap); var hi = new Array[Int](cap); var t = new Array[Int](cap)
    var n = 0; var maxLo = -1
    def add(a: Int, b: Int, x: Int): Unit = {
      if (n == lo.length) {
        lo = java.util.Arrays.copyOf(lo, 2 * n); hi = java.util.Arrays.copyOf(hi, 2 * n); t = java.util.Arrays.copyOf(t, 2 * n)
      }
      lo(n) = a; hi(n) = b; t(n) = x; n += 1
      if (a > maxLo) maxLo = a
    }
  }

  /** Convenience for tests: edges given as `(u, v, timestamps)`. */
  def apply(rows: (Int, Int, Seq[Int])*): TemporalGraph =
    fromInteractions(rows.flatMap { case (u, v, ts) => ts.map(t => (u, v, t)) })

  /** DataFrame of exploded temporal edges `(src, dst, t)` with `src < dst` —
    * the partitioned-temporal-edge representation used by the Spark jobs.
    */
  def toDF(spark: SparkSession, g: TemporalGraph): DataFrame = {
    import spark.implicits._
    val rows = g.edges.iterator.flatMap(e => e.ts.iterator.map(t => (e.u, e.v, t))).toSeq
    rows.toDF("src", "dst", "t")
  }
}
