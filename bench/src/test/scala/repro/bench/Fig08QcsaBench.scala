package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterProfile, SparkClusterSimulator, Workloads}
import repro.core.Qcsa
import scala.util.Random

/** Fig 8 / §5.2 — per-query configuration sensitivity of TPC-DS, and the
  * resulting CSQ set (paper: 23 of 104 kept; Q72 most sensitive with CV 3.49,
  * Q04 long but insensitive with CV 0.24).
  */
class Fig08QcsaBench extends AnyFunSuite {

  test("Fig 8: QCSA over 30 runs keeps a CSQ set close to the paper's 23") {
    val c = ClusterProfile.arm
    val space = Bench.space(c)
    val sim = new SparkClusterSimulator(Workloads.tpcds, c, Bench.Seed)
    val rng = new Random(Bench.Seed)
    val runs = Bench.randomRuns(sim, space, 30, 100.0, rng).map(_._2.perQuerySeconds)
    val r = Qcsa.analyze(runs, sim.queries)

    val topCv = r.cvs.toSeq.sortBy(-_._2).take(8)
    println("== Fig 8: TPC-DS query configuration sensitivity (CV over 30 runs) ==")
    println("top-8 CVs: " + topCv.map { case (q, v) => f"$q=$v%.2f" }.mkString(" "))
    println(f"threshold=${r.threshold}%.3f  kept=${r.sensitive.size} of 104")
    println("kept: " + r.sensitive.mkString(", "))
    val paperSet = Workloads.tpcdsCsq.toSet
    val overlap = r.sensitive.count(paperSet)
    println(s"overlap with the paper's 23 CSQs: $overlap/23 " +
      s"(missing: ${paperSet.diff(r.sensitive.toSet).mkString(",")})")

    assert(r.sensitive.contains("Q72"), "Q72 must be configuration sensitive")
    assert(r.cvs("Q72") > 4 * r.cvs("Q04"), "Q04 is long but insensitive")
    Workloads.tpcdsSelection.foreach(q => assert(!r.sensitive.contains(q), s"selection query $q kept"))
    assert(overlap >= 19, s"only $overlap of the paper's 23 CSQs kept")
    assert(r.sensitive.size <= 40, s"kept ${r.sensitive.size} — QCSA not selective enough")
  }
}
