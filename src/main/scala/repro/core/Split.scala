package repro.core

import java.util.concurrent.{CountDownLatch, ForkJoinPool}
import java.util.concurrent.atomic.AtomicInteger
import repro.triangles.TriangleSet

/** The one way [[MBA]] and [[DBA]] build a table: one triangle-connected
  * component at a time, on every core.
  *
  * Two triangles are connected when they share an edge, and a trussness
  * drop spreads only through triangles that share an edge (Lemmas 1–3), so
  * the k-spans of a triangle-connected component (Huang et al., SIGMOD
  * 2014) depend on its triangles alone. [[build]] cuts the δ-triangle list
  * into parts made of whole components, by one union-find over each
  * triangle's edges; gives each part local edge ids, ascending in the
  * global ones; runs the builder's kernel on every part in parallel; and
  * hands the parts' tables to [[KSpanTable.union]], which makes them one.
  *
  * Parts share no mutable state: each owns its [[TriangleSet]], its
  * kernel's scratch and its local [[KSpanTable]]. The partition is fixed
  * by the input and the core count: the components, largest first, each
  * go to the part with the fewest triangles so far (Graham's LPT rule),
  * ties to the lower index, among four parts per core. With four, a
  * component that costs more than its triangles suggest, like a large
  * clique, still gets a part of its own, and the other parts even out the
  * load around it. The calling thread works parts too, beside
  * `availableProcessors − 1` tasks on the common pool, each taking the
  * next part, largest first. A part is a few milliseconds of work, so the
  * parts run as threads of the driver and not as Spark tasks, whose job
  * and broadcast overheads would cost more than a part.
  */
private[repro] object Split {

  /** A part: its triangles over local edge ids, and the global id of each
    * local edge.
    */
  final case class Part(ts: TriangleSet, global: Array[Int])

  /** The triangle-connected component of each edge, −1 for an edge in no
    * triangle, numbered in ascending order of their smallest edges, and the
    * number of triangles of each component.
    */
  def components(ts: TriangleSet): (Array[Int], Array[Int]) = {
    // union-find over the edges, by path halving; the edges of a triangle
    // join, under the smallest root, so a root is its set's smallest edge
    val parent = Array.range(0, ts.m)
    def find(x0: Int): Int = {
      var x = x0
      while (parent(x) != x) { parent(x) = parent(parent(x)); x = parent(x) }
      x
    }
    // comp(e) ≥ 0 once e is seen in a triangle, then e's component
    val comp = new Array[Int](ts.m)
    java.util.Arrays.fill(comp, -1)
    var tid = 0
    while (tid < ts.size) {
      val a = ts.e1(tid); val b = ts.e2(tid); val c = ts.e3(tid)
      comp(a) = 0; comp(b) = 0; comp(c) = 0
      val ra = find(a); val rb = find(b); val rc = find(c)
      val r = math.min(ra, math.min(rb, rc))
      parent(ra) = r; parent(rb) = r; parent(rc) = r
      tid += 1
    }
    // a root precedes the rest of its set, so its number is set first
    var count = 0
    var e = 0
    while (e < ts.m) {
      if (comp(e) >= 0) {
        val r = find(e)
        if (r == e) { comp(e) = count; count += 1 } else comp(e) = comp(r)
      }
      e += 1
    }
    val size = new Array[Int](count)
    tid = 0
    while (tid < ts.size) { size(comp(ts.e1(tid))) += 1; tid += 1 }
    (comp, size)
  }

  /** The parts of `ts`, at most `n` of them and none empty, each made of
    * whole components, largest first.
    */
  def parts(ts: TriangleSet, n: Int): Array[Part] = {
    val (comp, size) = components(ts)
    // LPT: each component, largest first, to the part with the fewest triangles
    val nParts = math.min(n, size.length)
    val load = new Array[Int](nParts)
    val partOf = new Array[Int](size.length)
    for (c <- TriangleSet.descending(size)) {
      var p = 0
      var q = 1
      while (q < nParts) { if (load(q) < load(p)) p = q; q += 1 }
      partOf(c) = p
      load(p) += size(c)
    }
    // local edge ids, ascending in the global ones, so each triangle keeps
    // e1 < e2 < e3
    val nEdges = new Array[Int](nParts)
    var e = 0
    while (e < ts.m) { if (comp(e) >= 0) nEdges(partOf(comp(e))) += 1; e += 1 }
    val global = Array.tabulate(nParts)(p => new Array[Int](nEdges(p)))
    java.util.Arrays.fill(nEdges, 0)
    val local = new Array[Int](ts.m)
    e = 0
    while (e < ts.m) {
      if (comp(e) >= 0) {
        val p = partOf(comp(e))
        global(p)(nEdges(p)) = e; local(e) = nEdges(p); nEdges(p) += 1
      }
      e += 1
    }
    // each part's triangles in ascending global id, so its sweep order is
    // the global one restricted to the part
    val quads = Array.tabulate(nParts)(p => new Array[Int](4 * load(p)))
    val fill = new Array[Int](nParts)
    var tid = 0
    while (tid < ts.size) {
      val a = ts.e1(tid)
      val p = partOf(comp(a))
      val q = quads(p); val i = fill(p)
      q(i) = local(a); q(i + 1) = local(ts.e2(tid)); q(i + 2) = local(ts.e3(tid)); q(i + 3) = ts.mts(tid)
      fill(p) = i + 4
      tid += 1
    }
    // the parts largest first, ties in LPT order
    TriangleSet.descending(load).map(p => Part(TriangleSet.fromPacked(quads(p), nEdges(p)), global(p)))
  }

  /** The k-span table of `ts`: `kernel` run on every part, and the union
    * of the parts' tables. `kernel` must return the k-span table of the
    * triangles it is given.
    */
  def build(ts: TriangleSet)(kernel: TriangleSet => KSpanTable): KSpanTable = {
    val workers = Runtime.getRuntime.availableProcessors
    val ps = parts(ts, 4 * workers)
    val tables = new Array[KSpanTable](ps.length)
    runAll(ps.length, workers)(p => tables(p) = kernel(ps(p).ts))
    KSpanTable.union(ts.m, ts.deltaMax, ps.map(_.global), tables, workers)
  }

  /** `task(i)` for every `i < n`, each `i` claimed in ascending order by
    * the calling thread or one of up to `workers − 1` common-pool tasks,
    * which take the next unclaimed `i` until none is left. A task's
    * failure is rethrown on the calling thread.
    */
  private[core] def runAll(n: Int, workers: Int)(task: Int => Unit): Unit = {
    val failed = new Array[Throwable](n)
    val next = new AtomicInteger(0)
    // counted down once per task, so the caller waits only for claimed ones
    val done = new CountDownLatch(n)
    val work: Runnable = () => {
      var i = next.getAndIncrement()
      while (i < n) {
        try task(i)
        catch { case t: Throwable => failed(i) = t }
        done.countDown()
        i = next.getAndIncrement()
      }
    }
    for (_ <- 1 until math.min(workers, n)) ForkJoinPool.commonPool().execute(work)
    work.run()
    done.await()
    failed.find(_ != null).foreach(t => throw t)
  }
}
