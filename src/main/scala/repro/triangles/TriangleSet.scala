package repro.triangles

import repro.tgraph.TemporalGraph

/** One triangle as a value, with `e1 < e2 < e3`: what [[TriangleSet.tris]]
  * hands to tests, oracles and reports. The algorithms read the store's
  * flat accessors instead.
  */
final case class Tri(e1: Int, e2: Int, e3: Int, mts: Int)

/** The δ-triangle list of Definition 9, the one triangle store of both the
  * static build and §VI maintenance.
  *
  * Triangle `tid` is the quadruple `(e1, e2, e3, mts)` at offset `4·tid` of
  * one flat int array, with edge ids `e1 < e2 < e3`; `byEdge(e)` is the
  * exact-length row of ids of the triangles through edge `e`. The store
  * grows: [[addEdge]] appends an edge and the triangles it closes, and
  * [[setMts]] lowers an mts when a timestamp arrives. Rows are replaced when
  * they grow, never written in place, so a [[copy]] shares them.
  */
final class TriangleSet private (private var quads: Array[Int], private var n: Int,
                                 private var rows: Array[Array[Int]], private var nEdges: Int) {

  def m: Int = nEdges
  def size: Int = n

  def e1(tid: Int): Int = quads(4 * tid)
  def e2(tid: Int): Int = quads(4 * tid + 1)
  def e3(tid: Int): Int = quads(4 * tid + 2)
  def mts(tid: Int): Int = quads(4 * tid + 3)

  /** Ids of the triangles containing edge `e`. */
  def byEdge(e: Int): Array[Int] = rows(e)

  /** Largest minimum time span over all triangles (`δ_max`); 0 if none. */
  def deltaMax: Int = {
    var d = 0
    var tid = 0
    while (tid < n) { if (mts(tid) > d) d = mts(tid); tid += 1 }
    d
  }

  /** Ids of all triangles in descending order of mts, ties in ascending id:
    * the sweep order of MBA and DBA (Definition 9's δ-triangle list). A
    * counting sort over `0..deltaMax`, computed on each call.
    */
  def byMtsDescending: Array[Int] = {
    val dMax = deltaMax
    val next = new Array[Int](dMax + 1) // count of mts δ, then the next slot of δ
    var tid = 0
    while (tid < n) { next(mts(tid)) += 1; tid += 1 }
    var filled = 0
    var d = dMax
    while (d >= 0) { val c = next(d); next(d) = filled; filled += c; d -= 1 }
    val out = new Array[Int](n)
    tid = 0
    while (tid < n) { out(next(mts(tid))) = tid; next(mts(tid)) += 1; tid += 1 }
    out
  }

  /** Every triangle as a [[Tri]], in id order (a fresh array per call). */
  def tris: Array[Tri] = Array.tabulate(n)(tid => Tri(e1(tid), e2(tid), e3(tid), mts(tid)))

  /** An independent store with the same triangles and rows. */
  def copy: TriangleSet =
    new TriangleSet(java.util.Arrays.copyOf(quads, 4 * n), n, java.util.Arrays.copyOf(rows, nEdges), nEdges)

  /** Append edge `m` together with the triangles it closes, given as packed
    * `(e1, e2, m, mts)` quadruples: the new edge's row is installed once and
    * each companion row grows by one.
    */
  private[repro] def addEdge(closed: Array[Int]): Unit = {
    val e = nEdges
    val k = closed.length / 4
    if (4 * (n + k) > quads.length)
      quads = java.util.Arrays.copyOf(quads, math.max(4 * (n + k), 2 * quads.length))
    if (e == rows.length) rows = java.util.Arrays.copyOf(rows, math.max(16, 2 * e))
    System.arraycopy(closed, 0, quads, 4 * n, 4 * k)
    rows(e) = Array.range(n, n + k)
    var tid = n
    while (tid < n + k) {
      require(e3(tid) == e, s"triangle $tid does not close edge $e")
      grow(e1(tid), tid); grow(e2(tid), tid)
      tid += 1
    }
    n += k
    nEdges += 1
  }

  private def grow(e: Int, tid: Int): Unit = {
    val row = java.util.Arrays.copyOf(rows(e), rows(e).length + 1)
    row(row.length - 1) = tid
    rows(e) = row
  }

  /** Set the mts of triangle `tid`. */
  private[repro] def setMts(tid: Int, mts: Int): Unit = quads(4 * tid + 3) = mts
}

object TriangleSet {

  /** The triangles packed as consecutive `(e1, e2, e3, mts)` quadruples of a
    * graph with `m` edges; `packed` becomes the store, without a copy.
    */
  def fromPacked(packed: Array[Int], m: Int): TriangleSet =
    new TriangleSet(packed, packed.length / 4, incidence(packed, m), m)

  // `byEdge` is built in this method, not in the constructor body: on
  // wikitalk-lite (HotSpot 17, 4 vCPUs) the same loops took 70–85 ms in the
  // constructor, which runs once per graph, and 16–25 ms here.
  private def incidence(packed: Array[Int], m: Int): Array[Array[Int]] = {
    val cnt = new Array[Int](m)
    var j = 0
    while (j < packed.length) { if (j % 4 != 3) cnt(packed(j)) += 1; j += 1 }
    val out = Array.tabulate(m)(e => if (cnt(e) == 0) Array.emptyIntArray else new Array[Int](cnt(e)))
    val fill = new Array[Int](m)
    j = 0
    while (j < packed.length) {
      if (j % 4 != 3) { val e = packed(j); out(e)(fill(e)) = j / 4; fill(e) += 1 }
      j += 1
    }
    out
  }
}

/** The arrays of a [[TemporalGraph]] that triangle listing reads, in CSR
  * form: edge endpoints `u(e) < v(e)`; the adjacency of vertex `x`,
  * `adj[adjStart(x), adjStart(x + 1))`, packed `(neighbor << 32) | edgeId`
  * and sorted by neighbor; the sorted timestamps of edge `e`,
  * `ts[tsStart(e), tsStart(e + 1))`. Unlike the graph it is serializable,
  * and as a handful of flat arrays it is cheap to broadcast.
  */
final case class GraphArrays(u: Array[Int], v: Array[Int], adjStart: Array[Int], adj: Array[Long],
                             tsStart: Array[Int], ts: Array[Int])

object GraphArrays {
  def of(g: TemporalGraph): GraphArrays = {
    val adjStart = starts(g.nVertexIds, g.adj(_).length)
    val adj = new Array[Long](adjStart.last)
    g.adj.indices.foreach(x => System.arraycopy(g.adj(x), 0, adj, adjStart(x), g.adj(x).length))
    val tsStart = starts(g.m, g.edges(_).ts.length)
    val ts = new Array[Int](tsStart.last)
    g.edges.indices.foreach(e => System.arraycopy(g.edges(e).ts, 0, ts, tsStart(e), g.edges(e).ts.length))
    GraphArrays(g.edges.map(_.u), g.edges.map(_.v), adjStart, adj, tsStart, ts)
  }

  /** Offsets of `n` rows of length `len(i)` laid end to end, plus the end. */
  private def starts(n: Int, len: Int => Int): Array[Int] = {
    val out = new Array[Int](n + 1)
    var i = 0
    while (i < n) { out(i + 1) = out(i) + len(i); i += 1 }
    out
  }
}

/** Driver-side triangle enumeration. Its kernel [[enumerateRange]] also runs
  * inside the tasks of [[TriangleEnum.triangleSet]], one edge-id range each.
  */
object DriverTriangles {

  /** All triangles of `g`, sequentially: the reference that the Spark paths
    * are checked against.
    */
  def enumerate(g: TemporalGraph): TriangleSet =
    TriangleSet.fromPacked(enumerateRange(GraphArrays.of(g), 0, g.m), g.m)

  /** All triangles `a < b < c` whose edge `(a, b)` has an id in `[lo, hi)`,
    * packed as `(e1, e2, e3, mts)` with `e1 < e2 < e3`, in ascending order
    * of that edge id.
    *
    * Sorted-adjacency intersection of the endpoints of each edge `(a, b)`,
    * keeping only common neighbors `> b` so each triangle is emitted exactly
    * once; mts is evaluated with the three-pointer algorithm.
    */
  def enumerateRange(g: GraphArrays, lo: Int, hi: Int): Array[Int] = {
    val u = g.u; val v = g.v; val adjStart = g.adjStart; val adj = g.adj; val tsStart = g.tsStart; val ts = g.ts
    var out = new Array[Int](64)
    var n = 0
    var eid = lo
    while (eid < hi) {
      val a = u(eid); val b = v(eid)
      var i = adjStart(a); val iEnd = adjStart(a + 1)
      var j = adjStart(b); val jEnd = adjStart(b + 1)
      while (i < iEnd && j < jEnd) {
        val nu = (adj(i) >>> 32).toInt; val nv = (adj(j) >>> 32).toInt
        if (nu < nv) i += 1
        else if (nu > nv) j += 1
        else {
          if (nu > b) { // common neighbor w with a < b < w
            val euw = adj(i).toInt; val evw = adj(j).toInt
            if (n + 4 > out.length) out = java.util.Arrays.copyOf(out, out.length * 2)
            val e1 = math.min(eid, math.min(euw, evw))
            val e3 = math.max(eid, math.max(euw, evw))
            out(n) = e1; out(n + 1) = eid ^ euw ^ evw ^ e1 ^ e3; out(n + 2) = e3 // xor leaves the middle id
            out(n + 3) = Mts.of(ts, tsStart(eid), tsStart(eid + 1), ts, tsStart(euw), tsStart(euw + 1),
              ts, tsStart(evw), tsStart(evw + 1))
            n += 4
          }
          i += 1; j += 1
        }
      }
      eid += 1
    }
    java.util.Arrays.copyOf(out, n)
  }
}
