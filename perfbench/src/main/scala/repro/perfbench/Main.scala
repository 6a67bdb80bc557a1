package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import repro.tgraph.TemporalGraphGen

/** Entry point: `Main --workload <build|query|insert|all> --seed <n>
  * --seconds <s> --trace <0|1>`, run from the repository root.
  *
  * Prints one JSON result per workload as the last line(s) of stdout (the
  * last line is the last workload's) and writes a full record — tags,
  * every metric with its median, upper percentile and sample count — plus
  * the spans of a traced run to `perfbench/out`.
  */
object Main {

  val Workloads3: Seq[String] = Seq("build", "query", "insert")

  /** Cores for `local[N]`: at most four, never more than the machine has. */
  def cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  def session(): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  def runWorkload(name: String, ctx: Ctx): Outcome = name match {
    case "build"  => Workloads.build(ctx, TemporalGraphGen.byName("wikitalk-lite"), expectedKmax = Some(49))
    case "query"  => Workloads.query(ctx, TemporalGraphGen.byName("wikitalk-lite"))
    case "insert" => Workloads.insert(ctx, TemporalGraphGen.byName("wikitalk-lite"), sampleSize = 3000, warmOps = 100)
    case other    => sys.error(s"unknown workload: $other")
  }

  /** The contract line: correct, attempted, failed and the reported metrics. */
  def resultLine(o: Outcome, traced: Boolean): String = {
    val ms = if (traced) o.perLayer else o.endToEnd
    Json.obj(Seq(
      "correct" -> o.correct.toString,
      "attempted" -> o.attempted.toString,
      "failed" -> o.failed.toString,
      "metrics" -> Json.obj(ms.map(m => m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))),
    ))
  }

  def metricRecord(m: Metric): String = {
    val upper = Stats.upperPercentile(m.samples)
    Json.obj(Seq(
      "value" -> Json.num(m.value), "unit" -> Json.str(m.unit),
      "median" -> (if (m.samples.isEmpty) "null" else Json.num(Stats.median(m.samples))),
      "upper" -> upper.map(u => Json.num(u._2)).getOrElse("null"),
      "upper_pct" -> upper.map(u => Json.num(u._1)).getOrElse("null"),
      "n" -> m.samples.length.toString,
      "percentiles" -> (if (m.samples.length < 2) "null" else Json.obj(
        Seq(50.0, 90.0, 95.0, 99.0).map(p => s"p${p.toInt}" -> Json.num(Stats.percentile(m.samples, p))))),
    ))
  }

  def tags(ctx: Ctx, o: Outcome, spark: Option[SparkSession]): Seq[(String, String)] = {
    val jvmArgs = java.lang.management.ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
    Seq(
      "workload" -> Json.str(o.workload),
      "seed" -> ctx.seed.toString,
      "seconds" -> Json.num(ctx.seconds),
      "trace" -> (if (ctx.traced) "1" else "0"),
      "git_sha" -> Json.str(sys.props.getOrElse("perfbench.git", "unknown")),
      "source_sha256" -> Json.str(sys.props.getOrElse("perfbench.source", "unknown")),
      "xmx" -> Json.str(jvmArgs.find(_.startsWith("-Xmx")).getOrElse(s"${Runtime.getRuntime.maxMemory >> 20}m")),
      "spark_master" -> Json.str(spark.map(_.sparkContext.master).getOrElse(s"local[$cores] (not started)")),
      "cores" -> cores.toString,
      "spark_version" -> Json.str(org.apache.spark.SPARK_VERSION),
      "jvm_version" -> Json.str(System.getProperty("java.version")),
      "dataset" -> Json.obj(o.dataset.map { case (k, v) => k -> Json.num(v) }),
      "phase_s" -> Json.obj(o.phases.map { case (k, v) => k -> Json.num(v) }),
    )
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = opts.getOrElse(k, sys.error(s"missing --$k"))
    val workload = need("workload")
    val seed = need("seed").toLong
    val seconds = need("seconds").toDouble
    val traced = need("trace") == "1"
    val out = Paths.get("perfbench", "out")
    Files.createDirectories(out)

    var started: Option[SparkSession] = None
    val names = if (workload == "all") Workloads3 else Seq(workload)
    val lines = names.map { w =>
      val ctx = new Ctx(seed, seconds, traced, () => { val s = session(); started = Some(s); s })
      val o = runWorkload(w, ctx)
      val base = s"$w-seed$seed-trace${if (traced) 1 else 0}"
      val spansFile = out.resolve(s"$base.spans.jsonl")
      if (traced) Files.write(spansFile, Trace.jsonLines(o.spans).toSeq.asJava, StandardCharsets.UTF_8)
      val record = Json.obj(tags(ctx, o, started) ++ Seq(
        "correct" -> o.correct.toString,
        "attempted" -> o.attempted.toString,
        "failed" -> o.failed.toString,
        "failures" -> Json.arr(o.failures.map(Json.str)),
        "end_to_end" -> Json.obj(o.endToEnd.map(m => m.name -> metricRecord(m))),
        "per_layer" -> Json.obj(o.perLayer.map(m => m.name -> metricRecord(m))),
        "spans_file" -> (if (traced) Json.str(spansFile.toString) else "null"),
      ))
      write(out.resolve(s"$base.json"), record)
      o.failures.foreach(f => Console.err.println(s"[perfbench] $w: FAILED $f"))
      resultLine(o, traced)
    }
    started.foreach(_.stop())
    lines.foreach(println)
    Console.out.flush()
  }

  private def write(p: Path, s: String): Unit =
    Files.write(p, (s + "\n").getBytes(StandardCharsets.UTF_8))
}
