package repro.perfbench

/** Summary statistics used for every reported timing. */
object Stats {

  /** Percentiles tried for the upper tail, highest first. Above p90 the
    * tail is set by a handful of ops: a few multi-second inserts, whose
    * presence depends on the seed's sample, or the time other processes
    * took from a sub-millisecond query loop. p95 spread 2–3 times as much
    * as p90 between runs.
    */
  val TailCandidates: Seq[Double] = Seq(90.0, 75.0, 50.0)

  /** 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`. */
  def rank(p: Double, n: Int): Int = math.min(n, math.max(1, math.ceil(p * n / 100.0).toInt))

  /** Nearest-rank percentile `p` of a non-empty sample. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    xs.sorted.apply(rank(p, xs.length) - 1)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest candidate percentile with at least ten samples strictly
    * above its rank, as `(p, value)`; None when the sample is too small.
    */
  def upperPercentile(xs: Seq[Double]): Option[(Double, Double)] =
    TailCandidates.find(p => xs.nonEmpty && xs.length - rank(p, xs.length) >= 10)
      .map(p => (p, percentile(xs, p)))

  /** Upper percentile by the rule above, or the sample maximum when the
    * sample is too small for any candidate (fewer than twenty).
    */
  def tail(xs: Seq[Double]): Double =
    upperPercentile(xs).map(_._2).getOrElse(xs.max)
}

/** Minimal JSON rendering; values are passed pre-rendered. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
