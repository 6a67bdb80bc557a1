package repro

import repro.core.KSpanTable
import repro.tgraph.{TEdge, TemporalGraph}
import repro.triangles.{GraphArrays, TriangleSet}

/** Reference implementations that only tests call, beside [[Oracle]] and
  * `GridDC`: the slow, obvious form of what the system computes, which a
  * test holds the system to, and the graph counts of Table I.
  */
object Refs {

  /** Minimum time span by trying every choice of one timestamp per edge,
    * `O(|a|·|b|·|c|)`: the reference of `Mts.of`.
    */
  def mtsBruteForce(a: Array[Int], b: Array[Int], c: Array[Int]): Int = {
    var best = Int.MaxValue
    for (x <- a; y <- b; z <- c) {
      val span = math.max(x, math.max(y, z)) - math.min(x, math.min(y, z))
      if (span < best) best = span
    }
    best
  }

  /** Naive fixpoint: repeatedly drop edges whose valid support inside the
    * survivor set is < k−2; returns the (k,δ)-style truss edge set for an
    * explicit `k` and triangle validity predicate.
    */
  def fixpointTruss(ts: TriangleSet, k: Int, valid: Int => Boolean): Set[Int] = {
    var alive = (0 until ts.m).toSet
    var changed = true
    while (changed) {
      val sup = new Array[Int](ts.m)
      for (i <- 0 until ts.size if valid(i)) {
        val a = ts.e1(i); val b = ts.e2(i); val c = ts.e3(i)
        if (alive(a) && alive(b) && alive(c)) { sup(a) += 1; sup(b) += 1; sup(c) += 1 }
      }
      val next = alive.filter(e => sup(e) >= k - 2)
      changed = next.size != alive.size
      alive = next
    }
    alive
  }

  implicit final class TableRefs(private val t: KSpanTable) extends AnyVal {

    /** Edge set of `T_{k,δ}` by a scan of every row, `O(m)`: the reference
      * that tests hold the index queries to. Sorted ascending.
      */
    def trussEdges(k: Int, delta: Int): Array[Int] =
      (0 until t.m).filter(e => t.inTruss(e, k, delta)).toArray
  }

  implicit final class LevelRefs(private val lv: KSpanTable#Level) extends AnyVal {

    /** A copy of the edges of span exactly `d`, read off the directory. */
    def spanEdges(d: Int): Array[Int] =
      (0 until lv.blocks).find(lv.span(_) == d)
        .fold(Array.emptyIntArray)(b => (lv.start(b) until lv.end(b)).map(lv.edge).toArray)
  }

  /** The two-sided packed adjacency of `edges`, edge id = index: each
    * vertex's `(neighbor << 32) | edgeId` entries, sorted, by a sort of all
    * of them.
    */
  def adjacency(edges: Array[TEdge]): Array[Array[Long]] = {
    val n = edges.foldLeft(0)((top, e) => math.max(top, e.v + 1))
    val entries = edges.indices.flatMap(i => Seq(edges(i).u -> i, edges(i).v -> i).map { case (x, j) =>
      x -> ((edges(j).u + edges(j).v - x).toLong << 32 | j) })
    val byVertex = entries.groupMap(_._1)(_._2)
    Array.tabulate(n)(x => byVertex.getOrElse(x, Nil).sorted.toArray)
  }

  /** The CSR arrays of a graph copied out of its `adj` rows and `edges`:
    * the upper adjacency is the suffix of each row past the vertex itself,
    * and the timestamps are the edges' arrays end to end.
    */
  def graphArrays(adj: Array[Array[Long]], edges: Array[TEdge]): GraphArrays = {
    // the entries of neighbors > x are the suffix of x's row from first(x),
    // where a search for the self loop (x, 0), which no row holds, ends
    val first = Array.tabulate(adj.length)(x => -java.util.Arrays.binarySearch(adj(x), x.toLong << 32) - 1)
    val upStart = starts(adj.length, x => adj(x).length - first(x))
    val up = new Array[Long](upStart.last)
    adj.indices.foreach(x => System.arraycopy(adj(x), first(x), up, upStart(x), upStart(x + 1) - upStart(x)))
    val tsStart = starts(edges.length, edges(_).ts.length)
    val ts = new Array[Int](tsStart.last)
    edges.indices.foreach(e => System.arraycopy(edges(e).ts, 0, ts, tsStart(e), edges(e).ts.length))
    GraphArrays(upStart, up, tsStart, ts)
  }

  /** Offsets of `n` rows of length `len(i)` laid end to end, plus the end. */
  private def starts(n: Int, len: Int => Int): Array[Int] = {
    val out = new Array[Int](n + 1)
    var i = 0
    while (i < n) { out(i + 1) = out(i) + len(i); i += 1 }
    out
  }

  implicit final class GraphRefs(private val g: TemporalGraph) extends AnyVal {

    /** Number of distinct vertices that occur in some edge (`|V|`). */
    def numVertices: Int = {
      val seen = new Array[Boolean](g.nVertexIds)
      g.edges.foreach { e => seen(e.u) = true; seen(e.v) = true }
      seen.count(identity)
    }

    def degree(v: Int): Int = if (v < g.nVertexIds) g.adj(v).length else 0

    /** Number of distinct timestamps `n` across all edges. */
    def numDistinctTimestamps: Int = g.edges.iterator.flatMap(_.ts.iterator).distinct.size

    /** Average number of timestamps per static edge (`|τ|` in Table I). */
    def avgTimestampsPerEdge: Double =
      if (g.edges.isEmpty) 0.0 else g.edges.iterator.map(_.ts.length.toLong).sum.toDouble / g.m
  }
}
