package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.tgraph.TemporalGraphGen

/** The static build at the scale of the benchmark: on the email-lite and
  * wikitalk-lite analogs, MBA and DBA give the same table, each equal to
  * its kernel run on the whole triangle list as one part, the level
  * orders both builders wrote equal the reference built from the spans
  * alone, and their TC and DC are canonically equal. On wikitalk-lite
  * that covers 47 levels of some 10K blocks, all entered by the builders'
  * writes. Each reports DC-Query's mean path and run count on the
  * Fig 11/12 grid.
  */
class BenchScaleBuildSpec extends AnyFunSuite {

  for (name <- Seq("email-lite", "wikitalk-lite")) {
    test(s"$name: MBA == DBA, both level orders equal the reference, TC and DC canonically equal") {
      val ts = TestGraphs.tris(TemporalGraphGen.generate(TemporalGraphGen.byName(name)))
      val mba = MBA.build(ts)
      val dba = DBA.build(ts)
      assert(mba == dba, s"$name: DBA diverged from MBA")
      assert(mba == MBA.sweep(ts), s"$name: MBA's assembled parts diverged from its kernel on the whole list")
      assert(dba == DBA.decompose(ts), s"$name: DBA's assembled parts diverged from its kernel on the whole list")
      assert(mba.orderMoveNanos == 0 && dba.orderMoveNanos == 0, s"$name: an assembly moved an entry")
      val ref = Canonical.levelsOf(mba)
      Canonical.same(Canonical.levels(mba), ref, s"$name: MBA's level orders diverged from the reference")
      Canonical.same(Canonical.levels(dba), ref, s"$name: DBA's level orders diverged from the reference")
      Canonical.same(Canonical.tc(TCIndex.fromTable(mba)), Canonical.tc(TCIndex.fromTable(dba)), s"$name: TC of MBA != TC of DBA")
      val dc = DCIndex.fromTable(mba)
      Canonical.same(Canonical.dc(dc), Canonical.dc(DCIndex.fromTable(dba)), s"$name: DC of MBA != DC of DBA")
      val paths = TestGraphs.fig11Grid(mba.kMax, mba.deltaMax).map { case (k, d) => dc.explain(k, d) }
      info(s"kMax ${mba.kMax}, ${ref.map(_._1.toLong).sum} entries in ${ref.map(_._2.size).sum} blocks")
      info(f"DC-Query on the Fig 11/12 grid: mean path ${paths.map(_.pathNodes).sum.toDouble / paths.size}%.1f nodes " +
        f"(max ${paths.map(_.pathNodes).max}), mean ${paths.map(_.runs.length).sum.toDouble / paths.size}%.2f runs (max ${paths.map(_.runs.length).max})")
    }
  }
}
