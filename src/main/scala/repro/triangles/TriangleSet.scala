package repro.triangles

import repro.tgraph.TemporalGraph

/** One triangle of the static graph, referenced by its three edge ids, with
  * its precomputed minimum time span. `e1 < e2 < e3` canonically.
  */
final case class Tri(e1: Int, e2: Int, e3: Int, mts: Int) {
  def edges: Array[Int] = Array(e1, e2, e3)
  def contains(e: Int): Boolean = e == e1 || e == e2 || e == e3
  /** The two edges other than `e` (which must be one of the three). */
  def others(e: Int): (Int, Int) =
    if (e == e1) (e2, e3) else if (e == e2) (e1, e3) else (e1, e2)
}

/** Minimal triangle-incidence interface shared by the immutable
  * [[TriangleSet]] and the mutable maintenance state, so the truss-insert
  * maintenance algorithm runs over either.
  */
trait TriangleAccess {
  /** Ids of triangles containing edge `e`. */
  def trianglesOf(e: Int): scala.collection.IndexedSeq[Int]
  /** The two edges of triangle `tid` other than `e`. */
  def othersOf(tid: Int, e: Int): (Int, Int)
}

/** The δ-triangle list of Definition 9, materialized once per graph: every
  * triangle with its mts, plus the two access paths every algorithm needs —
  * per-edge incidence lists and per-mts buckets.
  */
final class TriangleSet(val tris: Array[Tri], val m: Int) extends TriangleAccess {

  override def trianglesOf(e: Int): scala.collection.IndexedSeq[Int] =
    scala.collection.immutable.ArraySeq.unsafeWrapArray(byEdge(e))
  override def othersOf(tid: Int, e: Int): (Int, Int) = tris(tid).others(e)

  /** `byEdge(e)` = ids of triangles containing edge `e`. */
  val byEdge: Array[Array[Int]] = TriangleSet.incidence(tris, m)

  /** Largest minimum time span over all triangles (`δ_max`); 0 if none. */
  val deltaMax: Int = if (tris.isEmpty) 0 else tris.iterator.map(_.mts).max

  /** `byMts(δ)` = ids of triangles whose mts is exactly δ (Definition 9). */
  lazy val byMts: Array[Array[Int]] = {
    val cnt = new Array[Int](deltaMax + 1)
    tris.foreach(t => cnt(t.mts) += 1)
    val out = Array.tabulate(deltaMax + 1)(d => new Array[Int](cnt(d)))
    val fill = new Array[Int](deltaMax + 1)
    var i = 0
    while (i < tris.length) {
      val d = tris(i).mts
      out(d)(fill(d)) = i; fill(d) += 1
      i += 1
    }
    out
  }

  def size: Int = tris.length
}

object TriangleSet {

  // `byEdge` is built in this method, not in the constructor body: on
  // wikitalk-lite (HotSpot 17, 4 vCPUs) the same loops took 70–85 ms in the
  // constructor, which runs once per graph, and 16–25 ms here.
  private def incidence(tris: Array[Tri], m: Int): Array[Array[Int]] = {
    val cnt = new Array[Int](m)
    tris.foreach { t => cnt(t.e1) += 1; cnt(t.e2) += 1; cnt(t.e3) += 1 }
    val out = Array.tabulate(m)(e => new Array[Int](cnt(e)))
    val fill = new Array[Int](m)
    var i = 0
    while (i < tris.length) {
      val t = tris(i)
      out(t.e1)(fill(t.e1)) = i; fill(t.e1) += 1
      out(t.e2)(fill(t.e2)) = i; fill(t.e2) += 1
      out(t.e3)(fill(t.e3)) = i; fill(t.e3) += 1
      i += 1
    }
    out
  }

  /** Triangles packed as consecutive `(e1, e2, e3, mts)` quadruples. */
  def fromPacked(packed: Array[Int], m: Int): TriangleSet =
    new TriangleSet(Array.tabulate(packed.length / 4) { i =>
      Tri(packed(4 * i), packed(4 * i + 1), packed(4 * i + 2), packed(4 * i + 3))
    }, m)
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
