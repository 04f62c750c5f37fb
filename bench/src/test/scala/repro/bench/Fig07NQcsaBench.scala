package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterProfile, SparkClusterSimulator}
import repro.stats.Stats
import scala.util.Random

/** Fig 7 — determining N_QCSA: the mean per-query CV grows with the number of
  * QCSA samples and flattens around 30 (the paper fixes N_QCSA = 30).
  */
class Fig07NQcsaBench extends AnyFunSuite {

  test("Fig 7: CV saturates around N_QCSA = 30 for TPC-DS and TPC-H") {
    val c = ClusterProfile.arm
    val space = Bench.space(c)
    println("== Fig 7: mean CV vs number of QCSA samples ==")
    Seq("TPC-DS", "TPC-H").foreach { wName =>
      val w = Bench.workload(wName)
      val sim = new SparkClusterSimulator(w, c, Bench.Seed)
      val rng = new Random(Bench.Seed)
      val runs = Bench.randomRuns(sim, space, 50, 100.0, rng).map(_._2.perQuerySeconds)
      val ns = Seq(5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
      val meanCv = ns.map { n =>
        val window = runs.take(n)
        n -> Stats.mean(w.queryIds.map(q => Stats.cv(window.map(_(q)))))
      }
      println(f"$wName%-8s " + meanCv.map { case (n, v) => f"N=$n:$v%.3f" }.mkString(" "))
      val byN = meanCv.toMap
      // growth from 5 to 30 samples is much larger than drift beyond 30
      val growth = math.abs(byN(30) - byN(5))
      val tail = math.abs(byN(50) - byN(30))
      assert(tail < growth, s"$wName: growth=$growth tail=$tail")
      assert(tail < 0.25 * byN(30), s"$wName: CV still moving after 30 samples (tail=$tail)")
    }
  }
}
