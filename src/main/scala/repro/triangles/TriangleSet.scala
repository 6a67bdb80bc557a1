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
  * exact-length row of ids of the triangles through edge `e`, built on the
  * first read (MBA reads none: it and the trussness peel lay out their own
  * incidence). The store grows: [[addEdge]] appends an edge and the
  * triangles it closes, and [[setMts]] lowers an mts when a timestamp
  * arrives. Rows are replaced when they grow, never written in place, so a
  * [[copy]] shares them.
  */
final class TriangleSet private (private var quads: Array[Int], private var n: Int,
                                 private var built: Array[Array[Int]], private var nEdges: Int) {

  // the `byEdge` rows; null until the first read
  private def rows: Array[Array[Int]] = {
    if (built == null) built = TriangleSet.incidence(quads, n, nEdges)
    built
  }

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
    * the sweep order of MBA and DBA (Definition 9's δ-triangle list), by
    * [[TriangleSet.descending]], computed on each call.
    */
  def byMtsDescending: Array[Int] = {
    val key = new Array[Int](n)
    var tid = 0
    while (tid < n) { key(tid) = mts(tid); tid += 1 }
    TriangleSet.descending(key)
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
    if (e == rows.length) built = java.util.Arrays.copyOf(rows, math.max(16, 2 * e))
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
    built(e) = row
  }

  /** Set the mts of triangle `tid`. */
  private[repro] def setMts(tid: Int, mts: Int): Unit = quads(4 * tid + 3) = mts
}

object TriangleSet {

  /** The triangles packed as consecutive `(e1, e2, e3, mts)` quadruples of a
    * graph with `m` edges; `packed` becomes the store, without a copy.
    */
  def fromPacked(packed: Array[Int], m: Int): TriangleSet =
    new TriangleSet(packed, packed.length / 4, null, m)

  /** The stable permutation of `0 until key.length` by descending key, ties
    * in ascending id: the one order of MBA and DBA's sweep and of §VI's
    * local peel. The keys must be non-negative. An LSD radix sort (Knuth,
    * TAOCP vol. 3, §5.2.5) on 8-bit digits, one stable
    * counting pass per digit of the largest key, `O(n · passes + 256)` time
    * and `O(n)` memory, whatever the largest key.
    */
  private[repro] def descending(key: Array[Int]): Array[Int] = {
    val n = key.length
    var top = 0
    var i = 0
    while (i < n) { top |= key(i); i += 1 }
    require(top >= 0, "sort keys must be non-negative")
    // the ids and their keys in the order of the passes so far; each pass
    // writes them to the spare pair, which keeps the reads sequential
    var ids = Array.range(0, n)
    var keys = key.clone()
    var ids2 = new Array[Int](n)
    var keys2 = new Array[Int](n)
    val next = new Array[Int](256) // per digit, largest first: its count, then its next slot
    var shift = 0
    while (shift < 32 && (top >>> shift) != 0) {
      java.util.Arrays.fill(next, 0)
      i = 0
      while (i < n) { next(255 - (keys(i) >>> shift & 255)) += 1; i += 1 }
      var acc = 0
      var d = 0
      while (d < 256) { val c = next(d); next(d) = acc; acc += c; d += 1 }
      i = 0
      while (i < n) {
        val d = 255 - (keys(i) >>> shift & 255)
        ids2(next(d)) = ids(i); keys2(next(d)) = keys(i); next(d) += 1
        i += 1
      }
      val t = ids; ids = ids2; ids2 = t
      val u = keys; keys = keys2; keys2 = u
      shift += 8
    }
    ids
  }

  // `byEdge` is built in this method, not in the constructor body: on
  // wikitalk-lite (HotSpot 17, 4 vCPUs) the same loops took 70–85 ms in the
  // constructor, which runs once per graph, and 16–25 ms here.
  private def incidence(packed: Array[Int], n: Int, m: Int): Array[Array[Int]] = {
    val cnt = new Array[Int](m)
    var j = 0
    while (j < 4 * n) { if (j % 4 != 3) cnt(packed(j)) += 1; j += 1 }
    val out = Array.tabulate(m)(e => if (cnt(e) == 0) Array.emptyIntArray else new Array[Int](cnt(e)))
    val fill = new Array[Int](m)
    j = 0
    while (j < 4 * n) {
      if (j % 4 != 3) { val e = packed(j); out(e)(fill(e)) = j / 4; fill(e) += 1 }
      j += 1
    }
    out
  }
}

/** The arrays of a [[TemporalGraph]] that triangle listing reads, in CSR
  * form: the upper adjacency of vertex `x`, `up[upStart(x), upStart(x + 1))`,
  * holds `(neighbor << 32) | edgeId` for each neighbor `> x`, sorted by
  * neighbor, so every edge has one entry, under its lower endpoint; the
  * sorted timestamps of edge `e`, `ts[tsStart(e), tsStart(e + 1))`. Unlike
  * the graph it is serializable, and as four flat arrays it is cheap to
  * broadcast.
  */
final case class GraphArrays(upStart: Array[Int], up: Array[Long], tsStart: Array[Int], ts: Array[Int])

object GraphArrays {

  /** The graph's own columns, not copied. */
  def of(g: TemporalGraph): GraphArrays = GraphArrays(g.upStart, g.up, g.tsStart, g.ts)
}

/** Driver-side triangle enumeration. Its kernel [[enumerateRange]] also runs
  * inside the tasks of [[TriangleEnum.triangleSet]], one range of
  * upper-adjacency positions each.
  */
object DriverTriangles {

  /** All triangles of `g`, sequentially: the reference that the Spark paths
    * are checked against.
    */
  def enumerate(g: TemporalGraph): TriangleSet =
    TriangleSet.fromPacked(enumerateRange(GraphArrays.of(g), 0, g.m), g.m)

  /** All triangles `a < b < c` whose edge `(a, b)` has its entry at a
    * position in `[lo, hi)` of `g.up`, packed as `(e1, e2, e3, mts)` with
    * `e1 < e2 < e3`, in ascending order of `(a, b)` (which is edge-id order
    * on a graph from [[repro.tgraph.TemporalGraph.fromInteractions]]).
    *
    * Sorted-merge intersection of the upper adjacencies of `a`, from the
    * entry after `b`, and of `b`: their common neighbors are the `w > b`,
    * so each triangle is emitted exactly once; mts is evaluated with the
    * three-pointer algorithm.
    */
  def enumerateRange(g: GraphArrays, lo: Int, hi: Int): Array[Int] = {
    val upStart = g.upStart; val up = g.up; val tsStart = g.tsStart; val ts = g.ts
    var out = new Array[Int](64)
    var n = 0
    // a: the vertex whose entries hold position p, the last with upStart(a) ≤ p
    var a = 0
    var top = upStart.length - 1
    while (a < top) { val mid = (a + top + 1) >>> 1; if (upStart(mid) <= lo) a = mid else top = mid - 1 }
    var p = lo
    while (p < hi) {
      while (upStart(a + 1) <= p) a += 1
      val b = (up(p) >>> 32).toInt; val eab = up(p).toInt
      var i = p + 1; val iEnd = upStart(a + 1)
      var j = upStart(b); val jEnd = upStart(b + 1)
      while (i < iEnd && j < jEnd) {
        val wa = (up(i) >>> 32).toInt; val wb = (up(j) >>> 32).toInt
        if (wa < wb) i += 1
        else if (wa > wb) j += 1
        else { // common neighbor w with a < b < w
          val eaw = up(i).toInt; val ebw = up(j).toInt
          if (n + 4 > out.length) out = java.util.Arrays.copyOf(out, out.length * 2)
          val e1 = math.min(eab, math.min(eaw, ebw))
          val e3 = math.max(eab, math.max(eaw, ebw))
          out(n) = e1; out(n + 1) = eab ^ eaw ^ ebw ^ e1 ^ e3; out(n + 2) = e3 // xor leaves the middle id
          out(n + 3) = Mts.of(ts, tsStart(eab), tsStart(eab + 1), ts, tsStart(eaw), tsStart(eaw + 1),
            ts, tsStart(ebw), tsStart(ebw + 1))
          n += 4
          i += 1; j += 1
        }
      }
      p += 1
    }
    java.util.Arrays.copyOf(out, n)
  }
}
