package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.util.Random
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.maintenance.{DynamicState, IndexMaintenance}
import repro.tgraph.{GenConfig, TemporalGraph, TemporalGraphGen}
import repro.triangles.{DriverTriangles, Tri, TriangleEnum, TriangleSet}
import repro.truss.TrussDecomposition

/** A reported number: `samples` holds every measurement behind `value`
  * (one entry when the value is a single measurement or a count).
  */
final case class Metric(name: String, unit: String, value: Double, samples: Seq[Double])

/** Everything one workload run produced. */
final case class Outcome(
    workload: String,
    attempted: Int,
    failed: Int,
    failures: Seq[String],
    endToEnd: Seq[Metric],
    perLayer: Seq[Metric],
    dataset: Seq[(String, Double)],
    phases: Seq[(String, Double)],
    spans: Seq[Span],
) {
  def correct: Boolean = failed == 0
}

/** Per-run state shared by the workloads: seed, time budget, tracer, the
  * lazily started Spark session and the verification tally.
  *
  * @param injectFault corrupt the first non-empty answer a check compares,
  *                    so tests can prove a wrong answer is counted
  */
final class Ctx(
    val seed: Long,
    val seconds: Double,
    val traced: Boolean,
    sessionOf: () => SparkSession,
    val injectFault: Boolean = false,
) {
  val tracer = new Tracer(s"seed$seed-${System.currentTimeMillis()}")
  tracer.enabled = traced

  private var sessionMs = Double.NaN
  lazy val spark: SparkSession = {
    val t0 = System.nanoTime()
    val s = sessionOf()
    sessionMs = (System.nanoTime() - t0) / 1e6
    s
  }
  def sessionStartMs: Double = sessionMs

  def span[A](name: String, items: Int = 1)(body: => A): A = tracer.span(name, items)(body)

  /** Per-layer values that are not span timings (counters, ratios). */
  val gauges = mutable.LinkedHashMap.empty[String, Metric]
  def gauge(name: String, unit: String, value: Double, samples: Seq[Double] = Nil): Unit =
    gauges(name) = Metric(name, unit, value, if (samples.isEmpty) Seq(value) else samples)

  var attempted = 0
  var failed = 0
  val failures = mutable.ArrayBuffer.empty[String]

  /** Count one verified op or check; false marks it failed. */
  def check(what: => String)(ok: Boolean): Boolean = {
    attempted += 1
    if (!ok) { failed += 1; if (failures.length < 20) failures += what }
    ok
  }

  /** Wall seconds of each step of the run, for the record. */
  val phases = mutable.LinkedHashMap.empty[String, Double]
  def phase[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally phases(name) = phases.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e9
  }

  private var injected = false
  def tamper(a: Array[Int]): Array[Int] =
    if (injectFault && !injected && a.nonEmpty) { injected = true; a.drop(1) } else a

  val rnd = new Random(seed * 0x9E3779B97F4A7C15L + 17)
}

/** The three workloads. Each follows the same shape:
  *
  *  1. set-up, repeated [[Workloads.SetupReps]] times (`setup_s` is the
  *     median);
  *  2. an untimed warm-up, so JIT and Spark code generation settle;
  *  3. a closed loop with one client that runs ops until the time budget is
  *     spent (the op in flight finishes), verifying each op's output after
  *     its timer stops;
  *  4. end-of-run verification against the repo's oracles;
  *  5. in a traced run only, probes that call the layers this workload does
  *     not exercise, so every per-layer metric is measured on every workload.
  *
  * In a traced run every other op is traced; the untraced ones give the
  * baseline for `trace.overhead_pct`.
  */
object Workloads {

  val SetupReps = 3
  /** Fractions of kmax and δmax of the paper's Fig 11/12 sweep grid. */
  val KFracs: Seq[Double] = (2 to 9).map(_ / 10.0)
  val DFracs: Seq[Double] = (1 to 10).map(_ / 10.0)

  def grid(kMax: Int, deltaMax: Int): Seq[(Int, Int)] =
    (for (kf <- KFracs; df <- DFracs)
      yield (math.max(3, math.round(kf * kMax).toInt), math.round(df * deltaMax).toInt)).distinct

  def interactions(g: TemporalGraph): Array[(Int, Int, Int)] =
    g.edges.iterator.flatMap(e => e.ts.iterator.map(t => (e.u, e.v, t))).toArray

  def sameSet(a: Array[Int], b: Array[Int]): Boolean = {
    if (a.length != b.length) false
    else {
      val x = a.clone(); val y = b.clone()
      java.util.Arrays.sort(x); java.util.Arrays.sort(y)
      java.util.Arrays.equals(x, y)
    }
  }

  private val triOrder: Ordering[Tri] = Ordering.by((t: Tri) => (t.e1, t.e2, t.e3, t.mts))

  def sameTriangles(a: TriangleSet, b: TriangleSet): Boolean =
    a.size == b.size && a.tris.sorted(triOrder).sameElements(b.tris.sorted(triOrder))

  def distinctMts(ts: TriangleSet): Int = ts.tris.iterator.map(_.mts).distinct.size

  /** Heap in use after collection. The pauses let Spark's context cleaner
    * drop the broadcast and shuffle blocks whose owners the first
    * collection freed; without them the figure depends on its timing.
    */
  def heapUsedMb(): Double = {
    for (_ <- 0 until 3) { System.gc(); Thread.sleep(300) }
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  def ms(ns: Long): Double = ns / 1e6

  /** A k-span table and both indexes built from it. */
  final case class Built(g: TemporalGraph, ts: TriangleSet, table: KSpanTable, tc: TCIndex, dc: DCIndex) {
    def indexMb: Double = (tc.approxBytes + dc.approxBytes) / 1e6
  }

  /** MBA and both indexes over a triangle list: the tail of every build. */
  private def indexed(ctx: Ctx, g: TemporalGraph, ts: TriangleSet): Built = {
    val table = ctx.span("core.mba")(MBA.build(ts))
    val tc = ctx.span("core.tc_build")(TCIndex.fromTable(table))
    val dc = ctx.span("core.dc_build")(DCIndex.fromTable(table))
    Built(g, ts, table, tc, dc)
  }

  /** Driver-side build (set-up path of `query`, `insert` and the probes). */
  def driverBuild(ctx: Ctx, g: TemporalGraph, spanName: String = "build"): Built = ctx.span(spanName) {
    indexed(ctx, g, ctx.span("triangles.driver_enum")(DriverTriangles.enumerate(g)))
  }

  /** The timed pipeline of `build`: raw interactions to both indexes. */
  def sparkBuild(ctx: Ctx, inter: Array[(Int, Int, Int)]): Built = ctx.span("build") {
    val g = ctx.span("tgraph.ingest")(TemporalGraph.fromInteractions(inter))
    indexed(ctx, g, ctx.span("triangles.spark_enum_collect")(TriangleEnum.triangleSet(ctx.spark, g)))
  }

  /** Untraced timings of a closed loop, plus the traced ones (traced runs). */
  final case class LoopTimes(untracedMs: Seq[Double], tracedMs: Seq[Double])

  /** Run `op(i)` until the budget is spent and at least `minOps` ops have
    * run; `verify(i, result)` runs after each op's timer stops and its
    * verdict is tallied as one attempted op.
    */
  def closedLoop[R](ctx: Ctx, minOps: Int = 1, maxOps: Int = Int.MaxValue)(op: Int => R)(
      verify: (Int, R) => Boolean): LoopTimes = {
    val untraced = mutable.ArrayBuffer.empty[Double]
    val traced = mutable.ArrayBuffer.empty[Double]
    // a traced run needs at least one untraced and one traced op
    val atLeast = if (ctx.traced) math.max(2, minOps) else minOps
    ctx.phase("loop") {
      val deadline = System.nanoTime() + (ctx.seconds * 1e9).toLong
      var i = 0
      while (i < maxOps && (i < atLeast || System.nanoTime() < deadline)) {
        val traceThis = ctx.traced && i % 2 == 1
        val t0 = System.nanoTime()
        val r = try Right(ctx.tracer.withTracing(traceThis)(op(i))) catch { case NonFatal(e) => Left(e) }
        (if (traceThis) traced else untraced) += ms(System.nanoTime() - t0)
        val ok = r.exists(x => try ctx.tracer.withTracing(false)(verify(i, x)) catch { case NonFatal(_) => false })
        ctx.check(s"op $i" + r.left.toOption.fold("")(e => s" threw $e"))(ok)
        i += 1
      }
    }
    LoopTimes(untraced.toSeq, traced.toSeq)
  }

  /** TC and DC agree on every grid cell. */
  def gridCheck(ctx: Ctx, label: String, tc: TCIndex, dc: DCIndex): Unit = {
    var edges = 0L
    val cells = grid(tc.kMax, tc.deltaMax)
    for ((k, d) <- cells) {
      val a = ctx.tamper(ctx.span("core.tc_query")(tc.query(k, d)))
      val b = ctx.span("core.dc_query")(dc.query(k, d))
      ctx.check(s"$label: TC == DC at (k=$k, δ=$d)")(sameSet(a, b))
      edges += b.length
    }
    ctx.gauge("core.answer_edges_per_query", "count", edges.toDouble / cells.length)
  }

  /** OnlineQuery on `n` seeded grid cells equals the TC answer. */
  def onlineCheck(ctx: Ctx, label: String, ts: TriangleSet, tc: TCIndex, n: Int): Unit = {
    val cells = grid(tc.kMax, tc.deltaMax)
    for (_ <- 0 until n) {
      val (k, d) = cells(ctx.rnd.nextInt(cells.length))
      val online = ctx.span("core.online_query")(OnlineQuery.query(ts, k, d))
      ctx.check(s"$label: Online == TC at (k=$k, δ=$d)")(sameSet(online, tc.query(k, d)))
    }
  }

  def trussCheck(ctx: Ctx, label: String, ts: TriangleSet, table: KSpanTable): Unit = {
    val trn = ctx.span("truss.trussness")(TrussDecomposition.trussness(ts))
    ctx.check(s"$label: trussness == table.trn")(java.util.Arrays.equals(trn, table.trn))
  }

  def sparkCheck(ctx: Ctx, label: String, g: TemporalGraph, driver: TriangleSet): Unit = {
    val viaSpark = ctx.span("triangles.spark_enum_collect")(TriangleEnum.triangleSet(ctx.spark, g))
    ctx.check(s"$label: Spark == driver triangles")(sameTriangles(viaSpark, driver))
  }

  def dbaCheck(ctx: Ctx, label: String, ts: TriangleSet, table: KSpanTable): Unit = {
    val dba = ctx.span("core.dba")(DBA.build(ts))
    ctx.check(s"$label: DBA == MBA")(dba == table)
  }

  // ------------------------------------------------------------- insertion

  /** Maintained state plus the two indexes kept fresh after every insert. */
  final class Live(val st: DynamicState, var tc: TCIndex, var dc: DCIndex) {
    val reports = mutable.ArrayBuffer.empty[IndexMaintenance.InsertReport]
    val repairMs = mutable.ArrayBuffer.empty[Double]
  }

  final case class InsertResult(tcAnswer: Array[Int], dcAnswer: Array[Int])

  /** One op of `insert`: one interaction in, both indexes fresh, one TC and
    * one DC query on the refreshed indexes.
    */
  def insertOp(ctx: Ctx, live: Live, x: (Int, Int, Int), k: Int, d: Int): InsertResult = {
    val t0 = System.nanoTime()
    val rep = ctx.span("maintenance.kspan_repair")(IndexMaintenance.insert(live.st, x._1, x._2, x._3))
    live.repairMs += ms(System.nanoTime() - t0)
    live.reports += rep
    val view = ctx.span("maintenance.table_view")(live.st.tableView)
    live.tc = ctx.span("core.tc_refresh")(TCIndex.refreshRows(live.tc, view, rep.changedLevels))
    live.dc = ctx.span("core.dc_refresh")(DCIndex.fromTable(view))
    val (a, b) = ctx.span("core.fresh_query", items = 2)((live.tc.query(k, d), live.dc.query(k, d)))
    InsertResult(a, b)
  }

  /** Maintained state equals a rebuild: k-span table, and the TC / DC
    * indexes answer every grid cell as freshly built ones do.
    */
  def maintainedCheck(ctx: Ctx, label: String, live: Live): Built = {
    val g = live.st.snapshotGraph
    val fresh = driverBuild(ctx, g, spanName = "rebuild")
    ctx.check(s"$label: maintained k-span table == MBA of snapshot")(live.st.snapshotTable == fresh.table)
    var edges = 0L
    val cells = grid(fresh.tc.kMax, fresh.tc.deltaMax)
    for ((k, d) <- cells) {
      val want = fresh.tc.query(k, d)
      val tcAns = ctx.tamper(ctx.span("core.tc_query")(live.tc.query(k, d)))
      val dcAns = ctx.span("core.dc_query")(live.dc.query(k, d))
      ctx.check(s"$label: maintained TC == fresh at (k=$k, δ=$d)")(sameSet(tcAns, want))
      ctx.check(s"$label: refreshed DC == fresh at (k=$k, δ=$d)")(sameSet(dcAns, want))
      edges += want.length
    }
    if (!ctx.gauges.contains("core.answer_edges_per_query"))
      ctx.gauge("core.answer_edges_per_query", "count", edges.toDouble / cells.length)
    fresh
  }

  /** Traced probe of the §VI path on a graph whose workload does not insert:
    * `n` seeded interactions, half new timestamps on existing edges and half
    * new edges inside a community, then the maintained == rebuilt oracle.
    */
  def maintenanceProbe(ctx: Ctx, b: Built, communitySize: Int, n: Int = 16): Unit = {
    val st = DynamicState.fromGraph(b.g, b.ts, b.table)
    val live = new Live(st, b.tc, b.dc)
    val cells = grid(b.tc.kMax, b.tc.deltaMax)
    val r = new Random(ctx.seed + 101)
    val horizon = math.max(1, b.g.tMax - b.g.tMin + 1)
    for (i <- 0 until n) {
      val x =
        if (i % 2 == 0) {
          val e = b.g.edges(r.nextInt(b.g.m))
          (e.u, e.v, b.g.tMin + r.nextInt(horizon))
        } else {
          var u = 0; var v = 0
          while ({
            u = r.nextInt(b.g.nVertexIds)
            v = (u / communitySize) * communitySize + r.nextInt(communitySize)
            v >= b.g.nVertexIds || u == v || st.edgeId(u, v) >= 0
          }) ()
          (u, v, b.g.tMin + r.nextInt(horizon))
        }
      val (k, d) = cells(r.nextInt(cells.length))
      val res = insertOp(ctx, live, x, k, d)
      ctx.check(s"probe insert $i: TC == DC")(sameSet(res.tcAnswer, res.dcAnswer))
    }
    maintainedCheck(ctx, "probe", live)
    reportMaintenance(ctx, live)
  }

  /** Repeat `body` [[SetupReps]] times under a "setup" span; returns the
    * last result and the wall time of each repetition in seconds.
    */
  def setup[A](ctx: Ctx)(body: => A): (A, Seq[Double]) = ctx.phase("setup") {
    var last: Option[A] = None
    val times = (0 until SetupReps).map { _ =>
      last = None // let the previous repetition be collected
      val t0 = System.nanoTime()
      last = Some(ctx.span("setup")(body))
      (System.nanoTime() - t0) / 1e9
    }
    (last.get, times)
  }

  // ------------------------------------------------------------ workloads

  /** A build takes seconds, so the loop runs at least this many to give
    * its median something to choose from, even past the time budget.
    */
  val MinBuilds = 3

  /** `build`: raw interactions → Spark triangle enumeration → MBA → TC + DC. */
  def build(ctx: Ctx, cfg0: GenConfig, expectedKmax: Option[Int]): Outcome = {
    val cfg = cfg0.copy(seed = ctx.seed)
    val (inter, setupS) = setup(ctx)(interactions(TemporalGraphGen.generate(cfg)))

    // Reference triangles from the driver enumerator, and two untimed builds
    // of an eighth-size copy of the analog so the timed builds see warm JIT
    // and Spark code generation. With one warm-up build the first timed
    // build still ran up to 20% slower than the others.
    val g0 = TemporalGraph.fromInteractions(inter)
    val reference = ctx.span("triangles.driver_enum")(DriverTriangles.enumerate(g0))
    ctx.phase("warmup")(ctx.tracer.withTracing(false) {
      val small = cfg.copy(nVertices = math.max(cfg.communitySize * 4, cfg.nVertices / 8),
        nRandomEdges = cfg.nRandomEdges / 8)
      val smallInter = interactions(TemporalGraphGen.generate(small))
      for (_ <- 0 until 2) sparkBuild(ctx, smallInter)
    })

    var last: Option[Built] = None
    var prevTable: Option[KSpanTable] = None
    val times = closedLoop(ctx, minOps = MinBuilds)(_ => { last = None; sparkBuild(ctx, inter) }) { (_, b) =>
      val same = prevTable.forall(_ == b.table) // every build gives the same table
      prevTable = Some(b.table)
      last = Some(b)
      b.ts.size == reference.size && expectedKmax.forall(_ == b.table.kMax) && same
    }
    val heapMb = heapUsedMb()
    val b = last.getOrElse(sys.error("no build finished within the time budget"))

    ctx.phase("verify") {
      ctx.check("Spark == driver triangles")(sameTriangles(b.ts, reference))
      expectedKmax.foreach(k => ctx.check(s"kmax == $k")(b.table.kMax == k))
      gridCheck(ctx, "build", b.tc, b.dc)
      onlineCheck(ctx, "build", b.ts, b.tc, n = 4)
      trussCheck(ctx, "build", b.ts, b.table)
    }
    if (ctx.traced) ctx.phase("probes") {
      dbaCheck(ctx, "build", b.ts, b.table)
      maintenanceProbe(ctx, b, cfg.communitySize)
    }
    finish(ctx, "build", times, setupS, b, heapMb, inter.length)
  }

  /** Distinct request orders in the `query` stream. */
  val Sweeps = 512
  val WarmSeconds = 2.0

  /** `query`: a seeded (k, δ) stream from the Fig 11/12 grid against both
    * indexes, built during set-up.
    *
    * The graph keeps the analog's own generator seed; the workload seed
    * orders the stream and picks the samples. Across generator seeds the
    * mean answer on the grid moves by about ±30% (the community blocks sit
    * near trussness 0.2·kmax), so a per-request time would measure the
    * generator rather than the query path.
    */
  def query(ctx: Ctx, cfg: GenConfig): Outcome = {
    val (b, setupS) = setup(ctx) {
      val inter = interactions(TemporalGraphGen.generate(cfg))
      val g = ctx.span("tgraph.ingest")(TemporalGraph.fromInteractions(inter))
      driverBuild(ctx, g)
    }
    // One request sweeps the whole grid in a seeded order, so every request
    // asks for the same mix and the seed changes only the order.
    val cells = grid(b.tc.kMax, b.tc.deltaMax).toArray
    val requestSize = cells.length
    val cellOf = Array.fill(Sweeps)(ctx.rnd.shuffle(cells.indices.toVector)).flatten
    val streamLength = cellOf.length
    val ks = cellOf.map(cells(_)._1); val ds = cellOf.map(cells(_)._2)

    // Reference answer sizes: every distinct cell is checked TC == DC once.
    val refSize = cells.map { case (k, d) =>
      val a = ctx.tamper(b.tc.query(k, d)); val c = b.dc.query(k, d)
      ctx.check(s"query: TC == DC at (k=$k, δ=$d)")(sameSet(a, c))
      c.length.toLong
    }
    val streamChecksum = cellOf.iterator.map(refSize(_)).sum

    val nReq = Sweeps
    def request(r: Int): (Long, Long) = {
      val base = (r % nReq) * requestSize
      var tcSum = 0L; var dcSum = 0L
      ctx.span("core.tc_query", requestSize) {
        var i = base
        while (i < base + requestSize) { tcSum += b.tc.query(ks(i), ds(i)).length; i += 1 }
      }
      ctx.span("core.dc_query", requestSize) {
        var i = base
        while (i < base + requestSize) { dcSum += b.dc.query(ks(i), ds(i)).length; i += 1 }
      }
      (tcSum, dcSum)
    }
    def expected(r: Int): Long = {
      val base = (r % nReq) * requestSize
      (base until base + requestSize).iterator.map(i => refSize(cellOf(i))).sum
    }
    ctx.phase("warmup")(ctx.tracer.withTracing(false) { // let the JIT settle on the query loops
      val until = System.nanoTime() + (WarmSeconds * 1e9).toLong
      var r = 0
      while (r < 2 * nReq || System.nanoTime() < until) { request(r); r += 1 }
    })

    val passSums = mutable.ArrayBuffer(0L)
    val times = closedLoop(ctx)(request) { (r, res) =>
      passSums(passSums.length - 1) += res._1
      if ((r + 1) % nReq == 0) passSums += 0L
      res._1 == expected(r) && res._2 == expected(r)
    }
    val heapMb = heapUsedMb()
    val fullPasses = passSums.dropRight(1)
    ctx.check("query: answer-edge checksum equal on every pass")(fullPasses.forall(_ == streamChecksum))
    ctx.gauge("core.answer_edges_per_query", "count", streamChecksum.toDouble / streamLength)

    ctx.phase("verify") {
      onlineCheck(ctx, "query", b.ts, b.tc, n = 4)
      trussCheck(ctx, "query", b.ts, b.table)
    }
    if (ctx.traced) ctx.phase("probes") {
      sparkCheck(ctx, "query", b.g, b.ts)
      dbaCheck(ctx, "query", b.ts, b.table)
      maintenanceProbe(ctx, b, cfg.communitySize)
    }
    finish(ctx, "query", times, setupS, b, heapMb, b.g.edges.iterator.map(_.ts.length).sum)
  }

  /** `insert` (§VII-D protocol): remove a seeded sample of interactions,
    * index the rest during set-up, then reinsert the sample one at a time.
    */
  def insert(ctx: Ctx, cfg0: GenConfig, sampleSize: Int, warmOps: Int): Outcome = {
    val cfg = cfg0.copy(seed = ctx.seed)
    val ((live, sample, cells, nInter), setupS) = setup(ctx) {
      val all = interactions(TemporalGraphGen.generate(cfg))
      val r = new Random(ctx.seed + 7)
      val picked = new java.util.BitSet(all.length)
      val sample = mutable.ArrayBuffer.empty[(Int, Int, Int)]
      while (sample.length < math.min(sampleSize, all.length)) {
        val i = r.nextInt(all.length)
        if (!picked.get(i)) { picked.set(i); sample += all(i) }
      }
      val kept = all.indices.iterator.filterNot(picked.get).map(all).toArray
      val g = ctx.span("tgraph.ingest")(TemporalGraph.fromInteractions(kept))
      val b = driverBuild(ctx, g)
      val st = DynamicState.fromGraph(g, b.ts, b.table)
      (new Live(st, b.tc, b.dc), sample.toArray, grid(b.tc.kMax, b.tc.deltaMax).toArray, all.length)
    }
    val cellOf = Array.fill(sample.length)(ctx.rnd.nextInt(cells.length))
    def op(i: Int): InsertResult = {
      val (k, d) = cells(cellOf(i))
      insertOp(ctx, live, sample(i), k, d)
    }
    def verify(i: Int, res: InsertResult): Boolean = sameSet(ctx.tamper(res.tcAnswer), res.dcAnswer)

    val warm = math.min(warmOps, sample.length / 2)
    ctx.phase("warmup")(ctx.tracer.withTracing(false) {
      for (i <- 0 until warm) ctx.check(s"warm-up insert $i")(verify(i, op(i)))
    })
    live.reports.clear(); live.repairMs.clear()
    val times = closedLoop(ctx, maxOps = sample.length - warm)(i => op(warm + i))((i, res) => verify(warm + i, res))
    val heapMb = heapUsedMb()

    val fresh = ctx.phase("verify") {
      val fresh = maintainedCheck(ctx, "insert", live)
      onlineCheck(ctx, "insert", fresh.ts, fresh.tc, n = 4)
      trussCheck(ctx, "insert", fresh.ts, fresh.table)
      fresh
    }
    if (ctx.traced) ctx.phase("probes") {
      sparkCheck(ctx, "insert", fresh.g, fresh.ts)
      dbaCheck(ctx, "insert", fresh.ts, fresh.table)
    }
    reportMaintenance(ctx, live)
    finish(ctx, "insert", times, setupS, Built(fresh.g, fresh.ts, fresh.table, live.tc, live.dc), heapMb, nInter)
  }

  // ----------------------------------------------------------- reporting

  def reportMaintenance(ctx: Ctx, live: Live): Unit = if (live.reports.nonEmpty) {
    val n = live.reports.length.toDouble
    def mean(f: IndexMaintenance.InsertReport => Double) = live.reports.iterator.map(f).sum / n
    ctx.gauge("maintenance.kspan_repair_p50_ms", "ms", Stats.median(live.repairMs.toSeq), live.repairMs.toSeq)
    ctx.gauge("maintenance.kspan_repair_tail_ms", "ms", Stats.tail(live.repairMs.toSeq), live.repairMs.toSeq)
    ctx.gauge("maintenance.new_static_edge_share", "ratio", mean(r => if (r.newStaticEdge) 1 else 0))
    ctx.gauge("maintenance.verified_ks", "count", mean(_.verifiedKs))
    ctx.gauge("maintenance.region_edges", "count", mean(_.regionEdgesTotal))
    ctx.gauge("maintenance.changed_spans", "count", mean(_.changedSpans))
    ctx.gauge("maintenance.changed_levels", "count", mean(_.changedLevels.size))
    val region = live.reports.iterator.map(_.regionEdgesTotal.toLong).sum
    ctx.gauge("maintenance.changed_spans_per_region_edge", "ratio",
      live.reports.iterator.map(_.changedSpans.toLong).sum.toDouble / math.max(1L, region))
  }

  def finish(ctx: Ctx, workload: String, times: LoopTimes, setupS: Seq[Double], b: Built,
             heapMb: Double, nInteractions: Int): Outcome = {
    val opMs = times.untracedMs
    val endToEnd =
      if (opMs.isEmpty) Nil
      else Seq(
        Metric("setup_s", "s", Stats.median(setupS), setupS),
        Metric("op_p50_ms", "ms", Stats.median(opMs), opMs),
        Metric("op_tail_ms", "ms", Stats.tail(opMs), opMs),
        Metric("index_mb", "MB", b.indexMb, Seq(b.indexMb)),
        Metric("retained_heap_mb", "MB", heapMb, Seq(heapMb)),
      )
    val dataset = Seq(
      "edges" -> b.g.m.toDouble,
      "interactions" -> nInteractions.toDouble,
      "triangles" -> b.ts.size.toDouble,
      "distinct_mts" -> distinctMts(b.ts).toDouble,
      "delta_max" -> b.ts.deltaMax.toDouble,
      "kmax" -> b.table.kMax.toDouble,
    )
    val perLayer = if (!ctx.traced) Nil else PerLayer.derive(ctx, times, b, dataset)
    Outcome(workload, ctx.attempted, ctx.failed, ctx.failures.toSeq, endToEnd, perLayer, dataset,
      ctx.phases.toSeq, ctx.tracer.spans)
  }
}
