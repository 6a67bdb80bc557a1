package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.maintenance.{DynamicState, IndexMaintenance}
import repro.tgraph.{GenConfig, GraphStats, TemporalGraph, TemporalGraphGen}
import repro.triangles.{DriverTriangles, TriangleEnum, TriangleSet}

/** Shared benchmark logic behind the `bench/` suites — one function per
  * paper table / headline claim, each returning printable rows (see
  * EXPERIMENTS.md for the paper-vs-measured record).
  */
object Benchmarks {

  /** Everything derived once per dataset analog. */
  final case class Prepared(
      cfg: GenConfig,
      g: TemporalGraph,
      ts: TriangleSet,
      table: KSpanTable,
      tc: TCIndex,
      dc: DCIndex,
  )

  private val cache = scala.collection.mutable.HashMap.empty[String, Prepared]

  /** Generate the analog, enumerate its δ-triangle list through the Spark
    * pipeline, build the k-span table with MBA and both indexes.
    */
  def prepare(spark: SparkSession, cfg: GenConfig): Prepared = cache.getOrElseUpdate(cfg.name, {
    val g = TemporalGraphGen.generate(cfg)
    val ts = TriangleEnum.triangleSet(spark, g)
    val table = MBA.build(ts)
    Prepared(cfg, g, ts, table, TCIndex.fromTable(table), DCIndex.fromTable(table))
  })

  def timeMs[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Average wall ms of `body` over `reps` runs after one warmup. */
  def avgMs(reps: Int)(body: => Unit): Double = {
    body
    val t0 = System.nanoTime()
    var i = 0
    while (i < reps) { body; i += 1 }
    (System.nanoTime() - t0) / 1e6 / reps
  }

  // ---------------------------------------------------------------- Table I

  def table1(spark: SparkSession, cfgs: Seq[GenConfig]): Seq[GraphStats] =
    cfgs.map(cfg => GraphStats.compute(spark, cfg.name, TemporalGraphGen.generate(cfg)))

  // --------------------------------------------------------------- Table II

  final case class Table2Row(
      name: String,
      avgEntry: Double,     // mean unique k-spans per I_k row
      tcTotalEdges: Long,
      dcTotalEdges: Long,
      dcOverE: Double,      // DC total edge # / |E|
      dcSpaceMB: Double,
      compression: Double,  // DC total edge # / Σ|T_{k,δ}|
  ) {
    def formatted: String =
      f"$name%-20s $avgEntry%9.0f $tcTotalEdges%12d $dcTotalEdges%12d " +
        f"$dcOverE%8.2f $dcSpaceMB%9.2f $compression%12.2e"
  }

  val table2Header: String =
    f"${"dataset"}%-20s ${"avgEntry"}%9s ${"TC edges"}%12s ${"DC edges"}%12s " +
      f"${"DC/|E|"}%8s ${"DC MB"}%9s ${"compression"}%12s"

  def table2(spark: SparkSession, cfgs: Seq[GenConfig]): Seq[Table2Row] =
    cfgs.map { cfg =>
      val p = prepare(spark, cfg)
      Table2Row(
        cfg.name,
        p.tc.avgEntryCount,
        p.tc.totalEdgeEntries,
        p.dc.totalEdgeEntries,
        p.dc.totalEdgeEntries.toDouble / math.max(1, p.g.m),
        p.dc.approxBytes / 1e6,
        p.dc.totalEdgeEntries.toDouble / math.max(1L, p.table.totalTrussCells),
      )
    }

  // ----------------------------------------------- Claim 1: query processing

  final case class QueryRow(name: String, k: Int, delta: Int, resultEdges: Int,
                            onlineMs: Double, tcMs: Double, dcMs: Double) {
    def formatted: String =
      f"$name%-20s k=$k%-3d d=$delta%-5d |T|=$resultEdges%7d " +
        f"online=$onlineMs%10.2f ms  tc=$tcMs%8.4f ms  dc=$dcMs%8.4f ms  " +
        f"speedup(tc)=${onlineMs / math.max(1e-9, tcMs)}%9.0fx"
  }

  /** Paper default: k = 30%·kmax, δ = 60%·δmax, average of `reps` runs.
    * The index-free side pays the full §III cost — triangle enumeration,
    * mts evaluation and peeling — exactly because it has no precomputation.
    */
  def queryBench(spark: SparkSession, cfg: GenConfig, kFrac: Double = 0.3,
                 dFrac: Double = 0.6, reps: Int = 100): QueryRow = {
    val p = prepare(spark, cfg)
    val k = math.max(3, math.round(kFrac * p.table.kMax).toInt)
    val d = math.round(dFrac * p.ts.deltaMax).toInt
    val onlineMs = avgMs(math.max(1, reps / 20)) {
      val ts = DriverTriangles.enumerate(p.g)
      OnlineQuery.query(ts, k, d): Unit
    }
    val tcMs = avgMs(reps) { p.tc.query(k, d): Unit }
    val dcMs = avgMs(reps) { p.dc.query(k, d): Unit }
    QueryRow(cfg.name, k, d, p.tc.query(k, d).length, onlineMs, tcMs, dcMs)
  }

  // ------------------------------------------- Claim 2: index construction

  final case class ConstructionRow(name: String, edges: Int, tris: Int,
                                   dbaMs: Double, mbaMs: Double) {
    def formatted: String =
      f"$name%-20s |E|=$edges%7d |tri|=$tris%8d DBA=$dbaMs%10.1f ms  MBA=$mbaMs%10.1f ms"
  }

  /** Min-of-N with alternating order and a GC between measurements — the
    * two builders allocate hundreds of MB per run, so a mean is dominated by
    * whichever run eats the collection pause.
    */
  def constructionBench(spark: SparkSession, cfg: GenConfig,
                        reps: Int = 3): ConstructionRow = {
    val p = prepare(spark, cfg)
    DBA.build(p.ts); MBA.build(p.ts) // warmup both paths
    var dbaMs = Double.MaxValue
    var mbaMs = Double.MaxValue
    var i = 0
    while (i < reps) {
      System.gc()
      val (_, d) = timeMs(DBA.build(p.ts))
      System.gc()
      val (_, m) = timeMs(MBA.build(p.ts))
      if (d < dbaMs) dbaMs = d
      if (m < mbaMs) mbaMs = m
      i += 1
    }
    ConstructionRow(cfg.name, p.g.m, p.ts.size, dbaMs, mbaMs)
  }

  // ------------------------------------------- Claim 3: index maintenance

  final case class MaintenanceRow(name: String, ops: Int, tcImMs: Double,
                                  dcImMs: Double, rebuildTcMs: Double,
                                  rebuildDcMs: Double, medianMs: Double) {
    def formatted: String =
      f"$name%-20s ops=$ops%4d TC-IM=$tcImMs%9.3f ms  DC-IM=$dcImMs%9.3f ms  " +
        f"rebuildTC=$rebuildTcMs%9.1f ms  rebuildDC=$rebuildDcMs%9.1f ms  " +
        f"median(kspan)=$medianMs%8.4f ms  speedup(tc)=${rebuildTcMs / math.max(1e-9, tcImMs)}%7.0fx"
  }

  /** The paper's protocol (§VII-D): remove `ops` random temporal edges,
    * re-insert them through Algorithm 2, and compare the per-insertion cost
    * against reconstruction from scratch with MBA. TC-IM = k-span
    * maintenance, whose moves of the table's level orders (`orderMoveNs`)
    * are TC's whole refresh, since TC is a view of those orders; DC-IM =
    * k-span maintenance + a full IES-tree derivation from the live table's
    * level orders. Each index is compared against its own from-scratch
    * baseline (δ-triangle list + MBA + index build), as in Fig 16.
    */
  def maintenanceBench(spark: SparkSession, cfg: GenConfig, ops: Int = 100,
                       seed: Long = 7): MaintenanceRow = {
    val p = prepare(spark, cfg)
    val rnd = new scala.util.Random(seed)
    val all = p.g.edges.flatMap(e => e.ts.map(t => (e.u, e.v, t)))
    val removedIdx = rnd.shuffle(all.indices.toList).take(ops)
    val removedSet = removedIdx.toSet
    val kept = all.zipWithIndex.collect { case (x, i) if !removedSet(i) => x }
    val removed = removedIdx.map(all)
    val base = TemporalGraph.fromInteractions(kept.toSeq)
    val baseTs = DriverTriangles.enumerate(base)
    val st = DynamicState.fromGraph(base, baseTs, MBA.build(baseTs))

    var tcImTotal = 0.0
    var dcImTotal = 0.0
    val perOp = scala.collection.mutable.ArrayBuffer.empty[Double]
    for ((u, v, t) <- removed) {
      val t0 = System.nanoTime()
      IndexMaintenance.insert(st, u, v, t)
      val kspanMs = (System.nanoTime() - t0) / 1e6
      perOp += kspanMs
      val t1 = System.nanoTime()
      DCIndex.fromTable(st.tableView)
      val dcMs = (System.nanoTime() - t1) / 1e6
      tcImTotal += kspanMs
      dcImTotal += kspanMs + dcMs
    }
    // per-index rebuild baselines, from scratch; min of 2 with a GC ahead
    // of each so a collection pause cannot deflate (or inflate) the baseline
    def rebuildMin(buildIndex: KSpanTable => Any): Double = {
      var best = Double.MaxValue
      var i = 0
      while (i < 2) {
        System.gc()
        val (_, ms) = timeMs {
          val ts2 = DriverTriangles.enumerate(st.snapshotGraph)
          buildIndex(MBA.build(ts2))
        }
        if (ms < best) best = ms
        i += 1
      }
      best
    }
    val rebuildTcMs = rebuildMin(TCIndex.fromTable)
    val rebuildDcMs = rebuildMin(DCIndex.fromTable)
    val sortedOps = perOp.sorted
    MaintenanceRow(cfg.name, ops, tcImTotal / ops, dcImTotal / ops,
      rebuildTcMs, rebuildDcMs, sortedOps(sortedOps.length / 2))
  }

  // ------------------------------------------- Claim 4: time coarsening

  final case class CoarseningRow(name: String, factor: Int, deltaMax: Int,
                                 tcEdges: Long, dcEdges: Long) {
    def formatted: String =
      f"$name%-20s merge=$factor%3d dmax=$deltaMax%6d TC=$tcEdges%10d DC=$dcEdges%10d " +
        f"DC/TC=${dcEdges.toDouble / math.max(1, tcEdges)}%6.3f"
  }

  def coarseningBench(spark: SparkSession, cfg: GenConfig,
                      factors: Seq[Int]): Seq[CoarseningRow] = {
    val g0 = TemporalGraphGen.generate(cfg)
    (1 +: factors).map { f =>
      val g = if (f == 1) g0 else TemporalGraphGen.coarsen(g0, f)
      val ts = TriangleEnum.triangleSet(spark, g)
      val table = MBA.build(ts)
      val tc = TCIndex.fromTable(table)
      val dc = DCIndex.fromTable(table)
      CoarseningRow(cfg.name, f, ts.deltaMax, tc.totalEdgeEntries, dc.totalEdgeEntries)
    }
  }
}
