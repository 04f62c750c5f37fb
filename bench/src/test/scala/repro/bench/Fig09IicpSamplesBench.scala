package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterProfile, SparkClusterSimulator, Workloads}
import repro.core.Iicp
import scala.util.Random

/** Fig 9 / Fig 10 — determining N_IICP and the CPS/CPE reduction: the number
  * of identified important parameters stabilizes by N_IICP ≈ 20; CPS keeps
  * roughly two thirds of the 38 parameters and CPE extracts roughly a third
  * of those.
  */
class Fig09IicpSamplesBench extends AnyFunSuite {

  private val c = ClusterProfile.arm
  private val space = Bench.space(c)

  test("Fig 9: CPS-kept parameter count stabilizes as N_IICP grows (TPC-DS)") {
    val sim = new SparkClusterSimulator(Bench.workload("TPC-DS"), c, Bench.Seed)
    val rng = new Random(Bench.Seed)
    val samples = Bench.randomRuns(sim, space, 50, 100.0, rng).map { case (conf, r) => (conf, r.totalSeconds) }
    val ns = Seq(5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
    val counts = ns.map(n => n -> Iicp.cps(space, samples.take(n)).size)
    println("== Fig 9: #important parameters vs N_IICP (TPC-DS) ==")
    println(counts.map { case (n, k) => f"N=$n:$k" }.mkString(" "))
    val byN = counts.toMap
    // beyond 20 samples the count no longer swings wildly
    val lateSwing = (20 to 45 by 5).map(n => math.abs(byN(n + 5) - byN(n))).max
    val earlySwing = math.abs(byN(10) - byN(5)) max math.abs(byN(15) - byN(10))
    println(s"early swing=$earlySwing late swing=$lateSwing")
    assert(byN.values.forall(k => k >= 5 && k <= 38))
    assert(lateSwing <= earlySwing + 3, s"early=$earlySwing late=$lateSwing")
  }

  test("Fig 10: CPS keeps a strict subset; CPE extracts about a third of it (all workloads)") {
    println("== Fig 10: #parameters after CPS and CPE ==")
    Workloads.all.map(_.name).foreach { wName =>
      val sim = new SparkClusterSimulator(Bench.workload(wName), c, Bench.Seed)
      val rng = new Random(Bench.Seed)
      val samples = Bench.randomRuns(sim, space, 20, 100.0, rng).map { case (conf, r) => (conf, r.totalSeconds) }
      val m = Iicp.fit(space, samples)
      println(f"$wName%-12s CPS=${m.keptParams.size}%2d CPE=${m.nFeatures}%2d (of 38)")
      assert(m.keptParams.size < 38)
      assert(m.nFeatures <= math.max(3, math.ceil(m.keptParams.size / 3.0).toInt))
      assert(m.nFeatures >= 1)
    }
  }
}
