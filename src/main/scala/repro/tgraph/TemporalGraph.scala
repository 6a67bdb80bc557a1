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
  require({ var i = 1; while (i < ts.length && ts(i - 1) < ts(i)) i += 1; i >= ts.length },
    s"temporal edge ($u, $v) must carry its timestamps sorted and distinct, got ${ts.mkString("[", ", ", "]")}")
}

/** Immutable driver-side temporal graph `G_t = (V, E, Γ)`, stored as flat
  * columns. Edges are identified by integer ids, on which all peeling and
  * maintenance algorithms operate:
  *  - edge `e` joins `u(e) < v(e)` and carries the sorted, distinct
  *    timestamps `ts[tsStart(e), tsStart(e + 1))`;
  *  - the upper adjacency of vertex `x`, `up[upStart(x), upStart(x + 1))`,
  *    holds `(neighbor << 32) | edgeId` for each neighbor `> x`, sorted by
  *    neighbor, so every edge has one entry, under its lower endpoint.
  *
  * These are the arrays that triangle listing reads and the Spark job
  * broadcasts ([[repro.triangles.GraphArrays]]). On a graph from
  * [[TemporalGraph.fromInteractions]], ids follow the order of `(u, v)`, so
  * edge `e` is the entry `up(e)`. `new TemporalGraph(edges)` keeps the ids
  * of an edge array in any order. [[edges]] and the two-sided [[adj]] are
  * views derived on first use, for the callers that read [[TEdge]]s or
  * rows.
  */
final class TemporalGraph private (
    val u: Array[Int],
    val v: Array[Int],
    val tsStart: Array[Int],
    val ts: Array[Int],
    val upStart: Array[Int],
    val up: Array[Long],
) {
  private def this(c: (Array[Int], Array[Int], Array[Int], Array[Int], Array[Int], Array[Long])) =
    this(c._1, c._2, c._3, c._4, c._5, c._6)

  /** The graph of `edges`, edge id = index. Throws
    * `IllegalArgumentException` if two edges join the same pair.
    */
  def this(edges: Array[TEdge]) = this(TemporalGraph.columns(edges))

  /** Smallest timestamp in the graph (0 for an empty graph). */
  val tMin: Int = TemporalGraph.timeBound(tsStart, ts, last = false)

  /** Largest timestamp in the graph (0 for an empty graph). */
  val tMax: Int = TemporalGraph.timeBound(tsStart, ts, last = true)

  require(TemporalGraph.spanFits(tMin, tMax),
    s"timestamp range [$tMin, $tMax] is wider than Int.MaxValue; time spans would overflow")

  /** Number of static edges `|E|`. */
  def m: Int = u.length

  /** One-past-the-max vertex id; vertex ids are dense `[0, nVertexIds)`. */
  def nVertexIds: Int = upStart.length - 1

  /** The sorted timestamps of edge `e`, as a new array. */
  def timestamps(e: Int): Array[Int] = java.util.Arrays.copyOfRange(ts, tsStart(e), tsStart(e + 1))

  /** Every interaction `(u, v, t)`, edge by edge, in ascending `t`. */
  def interactions: Iterator[(Int, Int, Int)] =
    Iterator.range(0, m).flatMap(e => Iterator.range(tsStart(e), tsStart(e + 1)).map(i => (u(e), v(e), ts(i))))

  /** The edges as [[TEdge]]s, edge id = index: a view made on first use. */
  lazy val edges: Array[TEdge] = Array.tabulate(m)(e => TEdge(u(e), v(e), timestamps(e)))

  /** Packed adjacency: `adj(x)` holds `(neighbor << 32) | edgeId`, sorted
    * by neighbor, for both directions of each edge: a view made on first
    * use.
    */
  lazy val adj: Array[Array[Long]] = TemporalGraph.adjacency(upStart, up)

  /** Edge id of the pair `{x, y}` in either orientation, or -1 if absent:
    * a binary search of the upper row of the lower endpoint.
    */
  def edgeId(x: Int, y: Int): Int = {
    val a = math.min(x, y); val b = math.max(x, y)
    if (a < 0 || b >= nVertexIds) -1 else TemporalGraph.entryOf(up, upStart(a), upStart(a + 1), b)
  }
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

  // the smallest first or the largest last timestamp of the edges (0 for
  // none). The graph's loops live in this object, not in the class body:
  // HotSpot 17 compiles a loop there only by on-stack replacement, and on
  // wikitalk-lite the adjacency loops once took about 15 ms longer there
  private def timeBound(tsStart: Array[Int], ts: Array[Int], last: Boolean): Int =
    if (ts.isEmpty) 0 else {
      var out = if (last) Int.MinValue else Int.MaxValue
      var e = 0
      while (e + 1 < tsStart.length) {
        out = if (last) math.max(out, ts(tsStart(e + 1) - 1)) else math.min(out, ts(tsStart(e)))
        e += 1
      }
      out
    }

  // the columns of `edges`, ids kept: the upper rows are their entries
  // bucketed by u and sorted by v
  private def columns(edges: Array[TEdge]) = {
    val m = edges.length
    val u = edges.map(_.u); val v = edges.map(_.v)
    val tsStart = edges.scanLeft(0)(_ + _.ts.length)
    val ts = edges.flatMap(_.ts)
    val (upStart, up) = buckets(v.foldLeft(0)((n, x) => math.max(n, x + 1)), m, u, v, Array.range(0, m))
    // a static pair is one edge: each neighbor once per row
    var p = 1
    while (p < m) {
      val a = eidOf(up(p - 1)); val b = eidOf(up(p))
      require(u(a) != u(b) || v(a) != v(b), s"a static pair is given twice, as edges $a and $b")
      p += 1
    }
    (u, v, tsStart, ts, upStart, up)
  }

  // the keys `hi(r) << 32 | low(r)` of the rows r < n, bucketed by
  // lo(r) < nV by a counting sort, each bucket sorted: bucket x is
  // keys[start(x), start(x + 1)). Returns (start, keys)
  private def buckets(nV: Int, n: Int, lo: Array[Int], hi: Array[Int], low: Array[Int]): (Array[Int], Array[Long]) = {
    val start = new Array[Int](nV + 1)
    var r = 0
    while (r < n) { start(lo(r) + 1) += 1; r += 1 }
    var x = 0
    while (x < nV) { start(x + 1) += start(x); x += 1 }
    val fill = java.util.Arrays.copyOf(start, nV)
    val keys = new Array[Long](n)
    r = 0
    while (r < n) { keys(fill(lo(r))) = (hi(r).toLong << 32) | (low(r) & 0xffffffffL); fill(lo(r)) += 1; r += 1 }
    x = 0
    while (x < nV) { java.util.Arrays.sort(keys, start(x), start(x + 1)); x += 1 }
    (start, keys)
  }

  // [[TemporalGraph.adj]], by one pass over the upper rows in order: row
  // x receives its lower neighbors, in ascending order, before its own
  // upper row
  private def adjacency(upStart: Array[Int], up: Array[Long]): Array[Array[Long]] = {
    val n = upStart.length - 1
    val deg = new Array[Int](n)
    var p = 0
    while (p < up.length) { deg(nbrOf(up(p))) += 1; p += 1 }
    val out = Array.tabulate(n)(x => new Array[Long](deg(x) + upStart(x + 1) - upStart(x)))
    val fill = new Array[Int](n)
    var x = 0
    while (x < n) {
      p = upStart(x)
      while (p < upStart(x + 1)) {
        val w = nbrOf(up(p))
        out(x)(fill(x)) = up(p); fill(x) += 1
        out(w)(fill(w)) = (x.toLong << 32) | eidOf(up(p)).toLong; fill(w) += 1
        p += 1
      }
      x += 1
    }
    out
  }

  /** Edge id of `{u, v}` in packed adjacency rows laid out like
    * [[TemporalGraph.adj]], or -1 if absent or if either id is out of range:
    * a binary search of `v`'s first entry in the row of the lower endpoint.
    */
  def edgeId(adj: Array[Array[Long]], u: Int, v: Int): Int = {
    val a = math.min(u, v); val b = math.max(u, v)
    if (a < 0 || b >= adj.length) -1 else entryOf(adj(a), 0, adj(a).length, b)
  }

  // the edge id of neighbor b's entry among the sorted packed entries
  // a[from, to), or -1: a binary search of b's first possible entry
  private def entryOf(a: Array[Long], from: Int, to: Int, b: Int): Int = {
    val i = java.util.Arrays.binarySearch(a, from, to, b.toLong << 32)
    val p = if (i >= 0) i else -i - 1
    if (p < to && nbrOf(a(p)) == b) eidOf(a(p)) else -1
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
    * Interactions are bucketed by their lower endpoint `lo`; each bucket
    * holds `(hi << 32) | (t ^ Int.MinValue)` longs, whose sort orders by
    * `hi`, then by signed `t`. The sorted buckets, duplicates skipped, are
    * the columns in order: bucket `lo` is the upper row of `lo`, and each
    * run of equal `hi` the next edge, so edge id = upper position.
    */
  def fromInteractions(rows: Iterable[(Int, Int, Int)]): TemporalGraph = {
    // the one pass over the tuples: the non-loops as (lower, higher,
    // t ^ Int.MinValue) columns. A closure, not a loop of this method: called per tuple, it
    // is compiled within the first call, where a loop waits for on-stack
    // replacement
    val cols = new Columns(math.max(16, rows.knownSize))
    rows.foreach { case (u, v, t) =>
      if (u != v) {
        require(validVertex(u) && validVertex(v), s"vertex ids must lie in [0, Int.MaxValue), got ($u, $v)")
        cols.add(math.min(u, v), math.max(u, v), t ^ Int.MinValue)
      }
    }
    val n = cols.n; val nV = cols.maxHi + 1
    val (start, keys) = buckets(nV, n, cols.lo, cols.hi, cols.t)
    // the columns, in one pass over the sorted keys, sized for n edges
    val u = new Array[Int](n); val v = new Array[Int](n); val up = new Array[Long](n)
    val tsStart = new Array[Int](n + 1); val ts = new Array[Int](n)
    val upStart = new Array[Int](nV + 1)
    var m = 0; var w = 0
    var x = 0
    while (x < nV) {
      upStart(x) = m
      var r = start(x)
      while (r < start(x + 1)) {
        val k = keys(r)
        if (r == start(x) || k != keys(r - 1)) {
          val hi = (k >>> 32).toInt
          if (m == upStart(x) || hi != v(m - 1)) {
            u(m) = x; v(m) = hi; up(m) = (hi.toLong << 32) | m.toLong; tsStart(m) = w
            m += 1
          }
          ts(w) = k.toInt ^ Int.MinValue; w += 1
        }
        r += 1
      }
      x += 1
    }
    upStart(nV) = m; tsStart(m) = w
    import java.util.Arrays.copyOf
    new TemporalGraph(copyOf(u, m), copyOf(v, m), copyOf(tsStart, m + 1), copyOf(ts, w), upStart, copyOf(up, m))
  }

  /** Interactions as three growing int columns, and the largest `hi`. */
  private final class Columns(cap: Int) {
    var lo = new Array[Int](cap); var hi = new Array[Int](cap); var t = new Array[Int](cap)
    var n = 0; var maxHi = -1
    def add(a: Int, b: Int, x: Int): Unit = {
      if (n == lo.length) {
        lo = java.util.Arrays.copyOf(lo, 2 * n); hi = java.util.Arrays.copyOf(hi, 2 * n); t = java.util.Arrays.copyOf(t, 2 * n)
      }
      lo(n) = a; hi(n) = b; t(n) = x; n += 1
      if (b > maxHi) maxHi = b
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
    g.interactions.toSeq.toDF("src", "dst", "t")
  }
}
