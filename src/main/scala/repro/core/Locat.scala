package repro.core

import repro.gp.{EiMcmc, GpKernel}
import scala.util.Random

/** The LOCAT tuner (paper §3, Fig 3).
  *
  * Procedure for a fresh application:
  *  1. Run BO with DAGP over the *full* configuration space for `nQcsa` = 30
  *     executions (3 LHS start points + 27 EI-MCMC picks), recording
  *     per-query times. These executions double as the QCSA and IICP samples
  *     — the paper stresses no extra sample collection happens.
  *  2. QCSA over the 30 runs → drop CIQs, keep the RQA.
  *  3. IICP (CPS + CPE) over the first `nIicp` = 20 samples → Gaussian-KPCA
  *     feature map over the important parameters.
  *  4. Continue BO with DAGP over (extracted features, datasize), executing
  *     only the RQA, until ≥ `minIter` iterations and EI < ln(1.1)
  *     (expected relative improvement below 10%, §3.4), or `maxIter`.
  *  5. Verify the best configuration with one full-application run.
  *
  * A `LocatSession` keeps all state so that when the input datasize changes,
  * `tuneNext` continues from the existing DAGP (datasize is a model input)
  * instead of re-tuning — the paper's "online" usage (§3.1, Fig 20).
  */
final class LocatSession(
    objective: TuningObjective,
    space: ConfigSpace,
    seed: Long,
    nQcsa: Int = 30,
    nIicp: Int = 20,
    minIter: Int = 10,
    maxIter: Int = 60,
    nextMinIter: Int = 5,
    nextMaxIter: Int = 20,
    gpTrainCap: Int = 80,
    useIicp: Boolean = true, // false = "AP" mode of Fig 15: tune all 38 parameters
) {
  require(nIicp <= nQcsa, "IICP samples are a prefix of the QCSA samples")

  private val rng = new Random(seed)
  private val kernel = GpKernel.Matern52(ard = false)

  private final case class RqaSample(conf: ConfigValues, subUnit: Option[Array[Double]],
                                     features: Array[Double], ds: Double, rqaSeconds: Double)

  private val fullRuns = scala.collection.mutable.ArrayBuffer.empty[(ConfigValues, Array[Double], ExecResult, Double)]
  private val rqaSamples = scala.collection.mutable.ArrayBuffer.empty[RqaSample]
  private val allTrials = scala.collection.mutable.ArrayBuffer.empty[Trial]
  private var totalCost = 0.0

  private var qcsaResult: Option[Qcsa.Result] = None
  private var iicpModel: Option[Iicp.Model] = None
  private var pinnedBase: Option[ConfigValues] = None

  /** QCSA outcome (available after tuneInitial). */
  def qcsa: Qcsa.Result = qcsaResult.getOrElse(throw new IllegalStateException("run tuneInitial first"))
  /** IICP outcome (available after tuneInitial). */
  def iicp: Iicp.Model = iicpModel.getOrElse(throw new IllegalStateException("run tuneInitial first"))
  /** Cumulative execution seconds paid so far across all tuning phases. */
  def cumulativeOptimizationSeconds: Double = totalCost

  // ---------------------------------------------------------------- phase 1

  private def runFull(conf: ConfigValues, u: Array[Double], ds: Double): ExecResult = {
    val res = objective.run(conf, ds, None)
    fullRuns += ((conf, u, res, ds))
    totalCost += res.totalSeconds
    allTrials += Trial(conf, ds, res, res.totalSeconds, fullApp = true)
    res
  }

  private def collectQcsaSamples(ds: Double): Unit = {
    // 3 LHS start points (paper §3.4)
    space.lhsUnit(3, rng).foreach(u => runFull(space.decode(u), u, ds))
    // BO with DAGP over the raw full space until nQcsa executions exist
    while (fullRuns.size < nQcsa) {
      val xs = fullRuns.map { case (_, u, _, d) => Dagp.inputVec(u, d) }.toSeq
      val ys = fullRuns.map { case (_, _, r, _) => math.log(r.totalSeconds) }.toSeq
      val model = EiMcmc.fitMarginalized(kernel, xs, ys, rng, nSamples = 3, nBurn = 8)
      val best = ys.min
      val incumbentU = fullRuns(fullRuns.indices.minBy(i => ys(i)))._2
      // candidates over conf-space; ds coordinate is pinned to the current ds
      val (cand, _) = argmaxEiWithPinnedDs(model, best, ds, Some(incumbentU))
      runFull(space.decode(cand), cand, ds)
    }
  }

  private def argmaxEiWithPinnedDs(model: EiMcmc.Marginalized, best: Double, ds: Double,
                                   incumbent: Option[Array[Double]],
                                   nRandom: Int = 192, nLocal: Int = 48): (Array[Double], Double) = {
    val pool = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]
    var i = 0
    while (i < nRandom) { pool += space.randomUnit(rng); i += 1 }
    incumbent.foreach { inc =>
      var j = 0
      while (j < nLocal) { pool += inc.map(v => math.min(1.0, math.max(0.0, v + rng.nextGaussian() * 0.08))); j += 1 }
    }
    val (bestI, bestEi) = model.maxEi(pool.map(c => Dagp.inputVec(c, ds)).toArray, best)
    (pool(bestI), bestEi)
  }

  // ---------------------------------------------------------------- phase 2

  private def rqaSecondsOf(res: ExecResult, rqa: Seq[String]): Double =
    rqa.map(res.perQuerySeconds).sum

  // With IICP off (Fig 15 "AP"), the DAGP input is the raw 38-dim encoding.
  private def searchSubspace: ConfigSpace = if (useIicp) iicp.subspace else space
  private def featuresOfConf(conf: ConfigValues): Array[Double] =
    if (useIicp) iicp.features(conf) else space.encode(conf)
  private def featuresOfSubUnit(u: Array[Double]): Array[Double] =
    if (useIicp) iicp.featuresOfSubspaceUnit(u) else u

  private def seedRqaSamplesFromFullRuns(): Unit = {
    val rqa = qcsa.rqa
    fullRuns.foreach { case (conf, _, res, d) =>
      rqaSamples += RqaSample(conf, None, featuresOfConf(conf), d, rqaSecondsOf(res, rqa))
    }
  }

  private def boOnRqa(ds: Double, itMin: Int, itMax: Int): Unit = {
    val rqa = qcsa.rqa
    val sub = searchSubspace
    var iter = 0
    var continue = true
    while (continue) {
      val window = rqaSamples.takeRight(gpTrainCap)
      val xs = window.map(s => Dagp.inputVec(s.features, s.ds)).toSeq
      val ys = window.map(s => math.log(s.rqaSeconds)).toSeq
      val model = EiMcmc.fitMarginalized(kernel, xs, ys, rng, nSamples = 4, nBurn = 10)
      val best = ys.min
      val incumbentSub = window.zip(ys).minBy(_._2)._1.subUnit

      // candidate pool in the important-parameter subspace: global random
      // draws plus coarse and fine perturbations of the incumbent
      val pool = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]
      var i = 0
      while (i < 320) { pool += sub.randomUnit(rng); i += 1 }
      incumbentSub.foreach { inc =>
        var j = 0
        while (j < 96) {
          val sigma = if (j % 2 == 0) 0.08 else 0.025
          pool += inc.map(v => math.min(1.0, math.max(0.0, v + rng.nextGaussian() * sigma)))
          j += 1
        }
      }
      val (bestI, bestEi) = model.maxEi(pool.map(u => Dagp.inputVec(featuresOfSubUnit(u), ds)).toArray, best)
      val bestU = pool(bestI)

      // evaluate: important params from the candidate, the rest pinned
      val subConf = sub.decode(bestU)
      val conf = ConfigValues(pinnedBase.get.values ++ subConf.values)
      val res = objective.run(conf, ds, Some(rqa))
      val rqaSec = rqaSecondsOf(res, rqa)
      rqaSamples += RqaSample(conf, Some(bestU), featuresOfConf(conf), ds, rqaSec)
      totalCost += res.totalSeconds
      allTrials += Trial(conf, ds, res, res.totalSeconds, fullApp = false)

      iter += 1
      continue = iter < itMax && (iter < itMin || bestEi >= Dagp.EiStopThreshold)
    }
  }

  private def finishAtDs(ds: Double): TuningResult = {
    // Pick the configuration whose DAGP posterior-mean RQA time at this
    // datasize is lowest: the surrogate denoises single observations, so
    // LOCAT sidesteps the winner's curse of argmin-over-noisy-runs.
    val atDs = rqaSamples.filter(_.ds == ds)
    val window = rqaSamples.takeRight(gpTrainCap)
    val model = EiMcmc.fitMarginalized(kernel,
      window.map(s => Dagp.inputVec(s.features, s.ds)).toSeq,
      window.map(s => math.log(s.rqaSeconds)).toSeq, rng, nSamples = 4, nBurn = 10)
    val (mus, _) = model.predictBatch(atDs.map(s => Dagp.inputVec(s.features, ds)).toArray)
    val best = atDs(atDs.indices.minBy(i => mus(i)))
    val verify = objective.run(best.conf, ds, None)
    totalCost += verify.totalSeconds
    allTrials += Trial(best.conf, ds, verify, verify.totalSeconds, fullApp = true)
    TuningResult("LOCAT", best.conf, verify.totalSeconds, totalCost, allTrials.toSeq)
  }

  /** Full LOCAT procedure for the first (or only) datasize. */
  def tuneInitial(ds: Double): TuningResult = {
    if (qcsaResult.nonEmpty) throw new IllegalStateException("tuneInitial may only run once per session")
    collectQcsaSamples(ds)
    val perQueryMaps = fullRuns.map(_._3.perQuerySeconds).toSeq
    qcsaResult = Some(Qcsa.analyze(perQueryMaps, objective.queries))
    if (useIicp) {
      val iicpSamples = fullRuns.take(nIicp).map { case (c, _, r, _) => (c, r.totalSeconds) }.toSeq
      iicpModel = Some(Iicp.fit(space, iicpSamples))
    }
    // Non-important parameters stay at their Spark defaults — LOCAT only
    // tunes the important ones (§3.3); tuning the rest can counteract the
    // gains (§5.6). Resource-sizing parameters are the exception: their
    // "defaults" are meaningless on a real cluster (§5.12 derives their
    // ranges from cluster capacity), so any CPS-dropped resource parameter
    // is pinned at the best configuration seen during sample collection.
    val resourceFamily = space.params.filter(p =>
      p.resource || p.name == "spark.executor.instances" || p.name == "spark.default.parallelism")
      .map(_.name).toSet
    val bestSeen = fullRuns.minBy(_._3.totalSeconds)._1
    pinnedBase = Some(ConfigValues(space.defaults.values ++
      bestSeen.values.view.filterKeys(resourceFamily).toMap))
    seedRqaSamplesFromFullRuns()
    boOnRqa(ds, minIter, maxIter)
    finishAtDs(ds)
  }

  /** Online continuation when the datasize changes: DAGP already knows `ds`
    * as an input, so only a short RQA-only BO refinement runs.
    */
  def tuneNext(ds: Double): TuningResult = {
    if (qcsaResult.isEmpty) throw new IllegalStateException("tuneNext requires tuneInitial")
    val (n, before) = (allTrials.size, totalCost)
    boOnRqa(ds, nextMinIter, nextMaxIter)
    val r = finishAtDs(ds)
    // report only this datasize's trials and their cost
    r.copy(optimizationSeconds = totalCost - before, trials = r.trials.drop(n))
  }
}

/** `Tuner` facade: one-shot LOCAT at a fixed datasize. */
final class Locat(nQcsa: Int = 30, nIicp: Int = 20, minIter: Int = 10, maxIter: Int = 60,
                  useIicp: Boolean = true) extends Tuner {
  override def name: String = if (useIicp) "LOCAT" else "LOCAT-AP"
  override def tune(objective: TuningObjective, space: ConfigSpace, datasizeGB: Double, seed: Long): TuningResult =
    new LocatSession(objective, space, seed, nQcsa, nIicp, minIter, maxIter,
      useIicp = useIicp).tuneInitial(datasizeGB)
}
