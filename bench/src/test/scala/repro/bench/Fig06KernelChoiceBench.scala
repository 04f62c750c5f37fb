package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterProfile, SparkClusterSimulator}
import repro.core.Iicp
import repro.stats.{KpcaKernel, Perceptron, Polynomial}
import scala.util.Random

/** Fig 6 — KPCA kernel comparison. The paper picks the kernel whose selected
  * parameters, when varied, cause the largest execution-time SD (gaussian
  * wins for both TPC-DS and TPC-H).
  *
  * Parameter "selection" by a KPCA kernel: rank the CPS-kept parameters by
  * the sensitivity of the extracted features to each parameter, keep the top
  * 8, vary only those (others at defaults), and measure the SD of execution
  * times over 30 random settings. Each kernel's 8 parameters are printed with
  * its SD: kernels that select the same set measure the same SD.
  */
class Fig06KernelChoiceBench extends AnyFunSuite {

  /** The SD of execution times when the kernel's 8 selected parameters vary, and those parameters. */
  private def kernelSd(workloadName: String, kernel: KpcaKernel, seed: Long): (Double, Set[String]) = {
    val c = ClusterProfile.arm
    val space = Bench.space(c)
    val sim = new SparkClusterSimulator(Bench.workload(workloadName), c, seed)
    val rng = new Random(seed)
    val samples = Bench.randomRuns(sim, space, 30, 100.0, rng).map { case (conf, r) => (conf, r.totalSeconds) }
    val model = Iicp.fit(space, samples, kernel = Some(kernel))
    // sensitivity of the extracted features to each kept parameter
    val sub = model.subspace
    val base = samples.map { case (conf, _) => sub.encode(conf) }
    def sens(i: Int): Double = base.map { u =>
      val up = u.clone(); up(i) = math.min(1.0, u(i) + 0.3)
      val dn = u.clone(); dn(i) = math.max(0.0, u(i) - 0.3)
      val a = model.kpca.transform(up); val b = model.kpca.transform(dn)
      math.sqrt(a.zip(b).map { case (x, y) => (x - y) * (x - y) }.sum)
    }.sum / base.size
    val selected = sub.names.zipWithIndex.sortBy { case (_, i) => -sens(i) }.take(8).map(_._1).toSet
    // vary only the selected parameters, everything else at defaults
    (Bench.sdVaryingOnly(sim, space, selected, 30, 100.0, rng), selected)
  }

  test("Fig 6: gaussian-kernel KPCA selects the most performance-relevant parameters") {
    println("== Fig 6: KPCA kernel comparison (SD of exec times, seconds) ==")
    val kernels = Seq[(String, Long => KpcaKernel)](
      ("gaussian", _ => KpcaKernel.Gaussian(1.0)),
      ("perceptron", _ => Perceptron),
      ("polynomial", _ => Polynomial))
    val rows = Seq("TPC-DS", "TPC-H").map { w =>
      val runs = kernels.map { case (kn, mk) => kn -> kernelSd(w, mk(Bench.Seed), Bench.Seed) }
      val sds = runs.map { case (kn, (sd, _)) => kn -> sd }
      println(f"$w%-8s " + sds.map { case (kn, sd) => f"$kn=$sd%8.1f" }.mkString("  "))
      runs.foreach { case (kn, (sd, selected)) =>
        println(f"  $w%-8s $kn%-10s sd=$sd%8.1f selects ${selected.toSeq.sorted.mkString(", ")}")
      }
      w -> sds.toMap
    }.toMap
    // shape: gaussian is competitive with the best kernel on both workloads
    rows.foreach { case (w, sds) =>
      assert(sds("gaussian") >= 0.75 * sds.values.max, s"$w: $sds")
    }
  }
}
