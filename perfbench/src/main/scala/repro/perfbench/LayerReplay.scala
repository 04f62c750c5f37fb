package repro.perfbench

import repro.cluster.{ClusterProfile, SparkClusterSimulator, Workloads}
import repro.core.{ConfigSpace, Dagp, Iicp, Qcsa}
import repro.gp.{EiMcmc, GpKernel}
import repro.linalg.Mat
import repro.ml.{Ga, Gbrt}
import repro.stats.{Kpca, KpcaKernel}
import scala.util.Random

/** Replay timings of the public layer entry points at the shapes the tuners
  * call them with: (n, d) of the training set, the MCMC draws, the candidate
  * pool and the tree ensembles below. Inputs derive from the run's seed.
  * Each number is the median over repeated calls.
  */
object LayerReplay {
  // LocatSession: QCSA-phase fits span n = 3..29 over the 38 parameters plus
  // datasize; RQA-phase fits use the last 80 samples over the KPCA features
  // plus datasize and score 320 random + 96 local subspace candidates, each
  // mapped through KPCA first.
  private val QcsaN = 16; private val RqaN = 80; private val RqaPool = 416
  // BoSearch under GBO-RL: 80 samples over all 38 parameters.
  private val BoN = 80
  // DAC: 240 samples over 38 parameters plus datasize; QTune refits its
  // critic on 15..315 samples, 165 on average.
  private val DacN = 240; private val QtuneN = 165
  private val IicpN = 20; private val QcsaRuns = 30
  private val Ds = 100.0

  private def timeMedian(minReps: Int, minSeconds: Double)(body: => Any): Double = {
    val samples = scala.collection.mutable.ArrayBuffer.empty[Double]
    val start = System.nanoTime()
    while (samples.size < minReps || (System.nanoTime() - start) / 1e9 < minSeconds && samples.size < 10000)
      samples += Stat.seconds(body)._2
    Stat.median(samples)
  }

  private def ms(body: => Any): Double = timeMedian(2, 0.5)(body) * 1e3
  private def us(body: => Any): Double = timeMedian(50, 0.2)(body) * 1e6

  /** Median milliseconds or microseconds of each layer call, by metric name. */
  def run(seed: Long): Map[String, Double] = {
    val rng = new Random(seed)
    val kernel = GpKernel.Matern52(ard = false)
    val space = ConfigSpace.full(arm = true)
    val sim = new SparkClusterSimulator(Workloads.tpcds, ClusterProfile.arm, seed)

    // Random configurations and their simulated TPC-DS runs are the inputs,
    // as in the tuners' first phases; targets are log seconds.
    val confs = Seq.fill(DacN)(space.random(rng))
    val runs = confs.map(c => sim.run(c, Ds))
    val units = confs.map(space.encode)
    val logT = runs.map(r => math.log(r.totalSeconds))

    val iicpSamples = confs.zip(runs).take(IicpN).map { case (c, r) => (c, r.totalSeconds) }
    val iicp = Iicp.fit(space, iicpSamples)
    val kx = iicpSamples.map { case (c, _) => iicp.subspace.encode(c) }
    val kKernel = KpcaKernel.Gaussian(math.max(KpcaKernel.medianSigma(kx), 1e-6))
    val kComponents = math.max(3, math.ceil(kx.head.length / 3.0).toInt)
    val perQuery = runs.take(QcsaRuns).map(_.perQuerySeconds)

    val qx = units.take(QcsaN).map(u => Dagp.inputVec(u, Ds)); val qy = logT.take(QcsaN)
    val rx = confs.take(RqaN).map(c => Dagp.inputVec(iicp.features(c), Ds)); val ry = logT.take(RqaN)
    val rqaModel = EiMcmc.fitMarginalized(kernel, rx, ry, new Random(seed), nSamples = 4, nBurn = 10)
    val pool = Seq.fill(RqaPool)(iicp.subspace.randomUnit(rng))
    val best = ry.min
    val kMat = Mat.fromRows(rx.map(a => rx.map(b => kernel(a, b, Array(0.0, math.log(0.3)))).toArray))
    (0 until RqaN).foreach(i => kMat(i, i) += 0.01)

    val dx = units.map(u => u :+ Ds / 1000.0)
    val dac = Gbrt.fit(dx, logT, nTrees = 120, maxDepth = 4)

    Map(
      "gp.fit_ms.locat_qcsa" -> ms(EiMcmc.fitMarginalized(kernel, qx, qy, new Random(seed), nSamples = 3, nBurn = 8)),
      "gp.fit_ms.locat_rqa" -> ms(EiMcmc.fitMarginalized(kernel, rx, ry, new Random(seed), nSamples = 4, nBurn = 10)),
      "gp.fit_ms.bosearch" -> ms(EiMcmc.fitMarginalized(kernel, units.take(BoN), logT.take(BoN), new Random(seed),
        nSamples = 3, nBurn = 6, thin = 2)),
      "gp.ei_pool_ms" -> ms(pool.foreach(u => rqaModel.ei(Dagp.inputVec(iicp.featuresOfSubspaceUnit(u), Ds), best))),
      "gp.predict_us" -> us(rqaModel.predict(rx.head)),
      "linalg.cholesky_ms" -> ms(Mat.cholesky(kMat)),
      "stats.kpca_fit_ms" -> ms(Kpca.fit(kx, kKernel, 0.9, kComponents)),
      "stats.kpca_transform_us" -> us(iicp.kpca.transform(kx.head)),
      "core.iicp_fit_ms" -> ms(Iicp.fit(space, iicpSamples)),
      "core.qcsa_ms" -> ms(Qcsa.analyze(perQuery, sim.queries)),
      "ml.gbrt_fit_ms.dac" -> ms(Gbrt.fit(dx, logT, nTrees = 120, maxDepth = 4)),
      "ml.gbrt_fit_ms.qtune" -> ms(Gbrt.fit(units.take(QtuneN), logT.take(QtuneN), nTrees = 60, maxDepth = 3)),
      "ml.ga_ms" -> ms(Ga.minimize(u => dac.predict(u :+ Ds / 1000.0), space.dim, new Random(seed),
        popSize = 40, generations = 50)),
      "cluster.run_ms" -> ms(sim.run(confs.head, 300.0)),
    )
  }
}
