package repro.tgraph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A temporal edge `(u, v, τ)` in canonical form: `u < v`, both valid
  * vertex ids, and `ts` sorted, distinct and non-empty (Preliminaries §II
  * of the paper).
  */
final case class TEdge(u: Int, v: Int, ts: Array[Int]) {
  require(u >= 0 && u < v && TemporalGraph.validVertex(v),
    s"temporal edge must be canonical (0 ≤ u < v < Int.MaxValue), got ($u, $v)")
  require(ts.nonEmpty, s"temporal edge ($u, $v) must carry at least one timestamp")
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

  // Every span `t - t'` (mts, δ) is an Int, which holds only while the
  // whole timestamp range fits in one.
  require(tMax.toLong - tMin <= Int.MaxValue,
    s"timestamp range [$tMin, $tMax] is wider than Int.MaxValue; time spans would overflow")

  /** Number of static edges `|E|`. */
  def m: Int = edges.length

  /** One-past-the-max vertex id; vertex ids are dense `[0, nVertexIds)`. */
  val nVertexIds: Int =
    if (edges.isEmpty) 0 else edges.iterator.map(_.v).max + 1

  /** Number of distinct vertices that occur in some edge (`|V|`). */
  lazy val numVertices: Int = {
    val seen = new Array[Boolean](nVertexIds)
    edges.foreach { e => seen(e.u) = true; seen(e.v) = true }
    seen.count(identity)
  }

  /** Packed adjacency: `adj(v)` holds `(neighbor << 32) | edgeId`, sorted by
    * neighbor. Covers both directions of each undirected edge.
    */
  val adj: Array[Array[Long]] = {
    val deg = new Array[Int](nVertexIds)
    edges.foreach { e => deg(e.u) += 1; deg(e.v) += 1 }
    val out = Array.tabulate(nVertexIds)(v => new Array[Long](deg(v)))
    val fill = new Array[Int](nVertexIds)
    var eid = 0
    while (eid < edges.length) {
      val e = edges(eid)
      out(e.u)(fill(e.u)) = (e.v.toLong << 32) | eid.toLong; fill(e.u) += 1
      out(e.v)(fill(e.v)) = (e.u.toLong << 32) | eid.toLong; fill(e.v) += 1
      eid += 1
    }
    out.foreach(a => java.util.Arrays.sort(a))
    out
  }

  def degree(v: Int): Int = if (v < nVertexIds) adj(v).length else 0

  /** Edge id of the pair `{u, v}` in either orientation, or -1 if absent. */
  def edgeId(u: Int, v: Int): Int = TemporalGraph.edgeId(adj, u, v)

  /** Smallest timestamp in the graph (0 for an empty graph). */
  lazy val tMin: Int = if (edges.isEmpty) 0 else edges.iterator.map(_.ts.head).min

  /** Largest timestamp in the graph (0 for an empty graph). */
  lazy val tMax: Int = if (edges.isEmpty) 0 else edges.iterator.map(_.ts.last).max

  /** Number of distinct timestamps `n` across all edges. */
  lazy val numDistinctTimestamps: Int = {
    val s = new java.util.HashSet[Int]()
    edges.foreach(_.ts.foreach(s.add))
    s.size
  }

  /** Average number of timestamps per static edge (`|τ|` in Table I). */
  def avgTimestampsPerEdge: Double =
    if (edges.isEmpty) 0.0 else edges.iterator.map(_.ts.length.toLong).sum.toDouble / m
}

object TemporalGraph {

  @inline def nbrOf(packed: Long): Int = (packed >>> 32).toInt
  @inline def eidOf(packed: Long): Int = (packed & 0xffffffffL).toInt

  /** Whether `v` can be a vertex id: ids index arrays of `max id + 1`
    * entries, so `Int.MaxValue` is out.
    */
  def validVertex(v: Int): Boolean = v >= 0 && v < Int.MaxValue

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
    var n = 0; var maxLo = -1
    rows.foreach { case (u, v, _) =>
      if (u != v) {
        val lo = math.min(u, v)
        require(validVertex(u) && validVertex(v), s"vertex ids must lie in [0, Int.MaxValue), got ($u, $v)")
        n += 1; maxLo = math.max(maxLo, lo)
      }
    }
    // start(lo) .. start(lo + 1) is the bucket of lower endpoint lo
    val start = new Array[Int](maxLo + 2)
    rows.foreach { case (u, v, _) => if (u != v) start(math.min(u, v) + 1) += 1 }
    var lo = 0
    while (lo <= maxLo) { start(lo + 1) += start(lo); lo += 1 }
    val fill = java.util.Arrays.copyOf(start, maxLo + 1)
    val keys = new Array[Long](n)
    rows.foreach { case (u, v, t) =>
      if (u != v) {
        val lo = math.min(u, v)
        keys(fill(lo)) = (math.max(u, v).toLong << 32) | ((t ^ Int.MinValue) & 0xffffffffL)
        fill(lo) += 1
      }
    }
    val es = Array.newBuilder[TEdge]
    lo = 0
    while (lo <= maxLo) {
      java.util.Arrays.sort(keys, start(lo), start(lo + 1))
      // compact the bucket's duplicate keys in place, to keys[start(lo), end)
      var end = start(lo)
      var r = start(lo)
      while (r < start(lo + 1)) {
        if (end == start(lo) || keys(r) != keys(end - 1)) { keys(end) = keys(r); end += 1 }
        r += 1
      }
      var i = start(lo)
      while (i < end) {
        val hi = (keys(i) >>> 32).toInt
        var j = i + 1
        while (j < end && (keys(j) >>> 32).toInt == hi) j += 1
        es += TEdge(lo, hi, Array.tabulate(j - i)(k => keys(i + k).toInt ^ Int.MinValue))
        i = j
      }
      lo += 1
    }
    new TemporalGraph(es.result())
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
