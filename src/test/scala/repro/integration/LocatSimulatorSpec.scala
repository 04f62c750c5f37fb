package repro.integration

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterProfile, SparkClusterSimulator, Workloads}
import repro.core.{ConfigSpace, Locat, LocatSession}

/** End-to-end LOCAT against the paper-scale simulator — the exact setup the
  * bench suites use, asserted at unit-test budgets.
  */
class LocatSimulatorSpec extends AnyFunSuite {

  private val space = ConfigSpace.full(arm = true)

  test("LOCAT on TPC-H/ARM beats the best of its own 30 QCSA samples") {
    val sim = new SparkClusterSimulator(Workloads.tpch, ClusterProfile.arm, seed = 1)
    val session = new LocatSession(sim, space, seed = 1, minIter = 8, maxIter = 20)
    val r = session.tuneInitial(300.0)
    val qcsaBest = r.trials.take(30).map(t => sim.expectedTotal(t.conf, 300.0)).min
    val finalBest = sim.expectedTotal(r.bestConf, 300.0)
    // 5% slack: the observed best-of-30 is selected under ~10% common noise,
    // so its true time can sit slightly below the GP-selected config's
    assert(finalBest <= qcsaBest * 1.05, s"final=$finalBest qcsaBest=$qcsaBest")
  }

  test("LOCAT on TPC-DS drops most queries from the RQA (paper: 81 of 104)") {
    val sim = new SparkClusterSimulator(Workloads.tpcds, ClusterProfile.arm, seed = 2)
    val session = new LocatSession(sim, space, seed = 2, minIter = 5, maxIter = 10)
    session.tuneInitial(100.0)
    val kept = session.qcsa.sensitive.size
    assert(kept < 52, s"kept $kept of 104") // at least half removed
    assert(session.qcsa.sensitive.contains("Q72"))
  }

  test("LOCAT's IICP on TPC-DS keeps spark.sql.shuffle.partitions in most sessions") {
    // N_IICP = 20 BO-biased samples make single-seed SCC ranks noisy (the
    // paper's own Fig 9 is about exactly this instability below N=20), so
    // assert across seeds: the dominant parameter must be CPS-kept in ≥ 2/3.
    val kept = (1 to 3).map { seed =>
      val sim = new SparkClusterSimulator(Workloads.tpcds, ClusterProfile.arm, seed)
      val session = new LocatSession(sim, space, seed, minIter = 5, maxIter = 10)
      session.tuneInitial(100.0)
      session.iicp.keptParams.contains("spark.sql.shuffle.partitions")
    }
    assert(kept.count(identity) >= 2, s"kept in ${kept.count(identity)}/3 sessions")
  }

  test("phase-2 RQA iterations are much cheaper than full-application runs") {
    val sim = new SparkClusterSimulator(Workloads.tpcds, ClusterProfile.arm, seed = 4)
    val session = new LocatSession(sim, space, seed = 4, minIter = 5, maxIter = 10)
    val r = session.tuneInitial(100.0)
    val (full, rqa) = r.trials.partition(_.result.perQuerySeconds.keySet == sim.queries.toSet)
    val fullAvg = full.map(_.costSeconds).sum / full.size
    val rqaAvg = rqa.map(_.costSeconds).sum / math.max(1, rqa.size)
    assert(rqaAvg < fullAvg * 0.6, s"rqa=$rqaAvg full=$fullAvg")
  }

  test("online continuation across the five Table 1 datasizes keeps getting cheaper") {
    val sim = new SparkClusterSimulator(Workloads.tpch, ClusterProfile.arm, seed = 5)
    val session = new LocatSession(sim, space, seed = 5, minIter = 6, maxIter = 12,
      nextMinIter = 3, nextMaxIter = 8)
    val first = session.tuneInitial(100.0)
    val rest = Seq(200.0, 300.0).map(session.tuneNext)
    rest.foreach { r =>
      // continuations run only a short RQA-only refinement, but each run is
      // 2-3x longer at the larger datasize — still well under the initial cost
      assert(r.optimizationSeconds < first.optimizationSeconds * 0.6,
        s"continuation cost ${r.optimizationSeconds} vs initial ${first.optimizationSeconds}")
    }
  }

  test("x86 cluster end-to-end also works with Range B") {
    val sim = new SparkClusterSimulator(Workloads.hibenchAggregation, ClusterProfile.x86, seed = 6)
    val r = new Locat(nQcsa = 12, nIicp = 10, minIter = 5, maxIter = 10)
      .tune(sim, ConfigSpace.full(arm = false), 200.0, seed = 6)
    assert(r.bestTimeSeconds > 0 && r.optimizationSeconds > r.bestTimeSeconds)
  }
}
