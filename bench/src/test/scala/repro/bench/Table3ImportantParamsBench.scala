package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterProfile, SparkClusterSimulator, Workloads}
import repro.core.Iicp
import scala.util.Random

/** Table 3 — top-5 important parameters selected by CPS for TPC-DS at
  * 100 GB / 500 GB / 1 TB (N_IICP = 20 samples, as in the paper).
  */
class Table3ImportantParamsBench extends AnyFunSuite {

  private val paperTop5 = Map(
    100.0 -> Seq("spark.sql.shuffle.partitions", "spark.executor.memory", "spark.executor.cores",
      "spark.shuffle.compress", "spark.executor.instances"),
    500.0 -> Seq("spark.sql.shuffle.partitions", "spark.shuffle.compress", "spark.executor.memory",
      "spark.executor.instances", "spark.executor.cores"),
    1000.0 -> Seq("spark.sql.shuffle.partitions", "spark.shuffle.compress", "spark.executor.memory",
      "spark.executor.instances", "spark.memory.offHeap.size"))

  // the family of parameters the paper's Table 3 draws from (plus the
  // off-heap enable switch, inseparable from off-heap size in our space)
  private val paperFamily = paperTop5.values.flatten.toSet + "spark.memory.offHeap.enabled"

  test("Table 3: top-5 CPS parameters for TPC-DS at 100GB/500GB/1TB") {
    val cluster = ClusterProfile.arm
    val space = Bench.space(cluster)
    val sim = new SparkClusterSimulator(Workloads.tpcds, cluster, Bench.Seed)
    val rng = new Random(Bench.Seed)
    println("== Table 3: Top-5 important parameters (CPS, N_IICP=20) ==")
    val hits = Seq(100.0, 500.0, 1000.0).map { ds =>
      val samples = Bench.randomRuns(sim, space, 20, ds, rng).map { case (c, r) => (c, r.totalSeconds) }
      val top5 = Iicp.cps(space, samples).take(5)
      println(s"-- ${ds.toInt} GB   (paper: ${paperTop5(ds).map(_.stripPrefix("spark.")).mkString(", ")})")
      top5.foreach { case (p, scc) => println(f"   $p%-55s SCC=$scc%+.3f") }
      val inFamily = top5.count { case (p, _) => paperFamily(p) }
      println(s"   -> $inFamily/5 in the paper's Table 3 parameter family")
      inFamily
    }
    // At N_IICP = 20 the SCC sampling noise is ~1/√19 ≈ 0.23, so single-seed
    // top-5 lists are noisy (the low-noise variant below carries the shape);
    // still, the paper's family must keep showing up.
    assert(hits.forall(_ >= 1), s"family hits per ds: $hits")
    assert(hits.sum >= 5, s"total family hits ${hits.sum}/15")
  }

  test("Table 3 (low-noise variant): rankings from 200 samples per datasize") {
    val cluster = ClusterProfile.arm
    val space = Bench.space(cluster)
    val sim = new SparkClusterSimulator(Workloads.tpcds, cluster, Bench.Seed)
    val rng = new Random(Bench.Seed + 1)
    Seq(100.0, 500.0, 1000.0).foreach { ds =>
      val samples = (1 to 200).map { _ =>
        val c = space.random(rng)
        (c, sim.expectedTotal(c, ds))
      }
      val top5 = Iicp.cps(space, samples).take(5).map(_._1)
      println(s"-- ${ds.toInt} GB top-5 @200 samples: ${top5.map(_.stripPrefix("spark.")).mkString(", ")}")
      assert(top5.count(paperFamily) >= 3, s"$ds: $top5")
      // the paper's #1 is spark.sql.shuffle.partitions at every datasize;
      // shuffle-related parameters must lead here as well
      assert(top5.take(2).exists(p => p.contains("shuffle")), s"$ds: $top5")
    }
  }
}
