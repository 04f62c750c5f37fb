package repro.core

import repro.gp.EiMcmc
import repro.gp.EiMcmc.Observation
import repro.stats.Rng
import scala.collection.mutable.ArrayBuffer

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
    useIicp: Boolean = true, // false = "AP" mode of Fig 15: tune all 38 parameters
) {
  require(nIicp <= nQcsa, "IICP samples are a prefix of the QCSA samples")

  private val rng = Rng(seed)
  private val log = new TrialLog(objective)
  // DAGP training set of the RQA phase: each trial with its observation
  // (RQA seconds; for BO picks, the subspace unit it was chosen at)
  private val rqaSamples = ArrayBuffer.empty[(Trial, Observation)]

  // set once by tuneInitial: the QCSA and IICP outcomes, the space the RQA phase searches (its
  // decode is the configuration that runs) and the map from its unit vectors to DAGP features
  private case class Analysis(qcsa: Qcsa.Result, iicp: Option[Iicp.Model], sub: ConfigSpace,
                              features: Array[Double] => Array[Double])
  private var analysis: Option[Analysis] = None
  private def analyzed: Analysis = analysis.getOrElse(throw new IllegalStateException("run tuneInitial first"))

  /** QCSA outcome (available after tuneInitial). */
  def qcsa: Qcsa.Result = analyzed.qcsa
  /** IICP outcome (available after tuneInitial, unless IICP is off). */
  def iicp: Iicp.Model = analyzed.iicp.getOrElse(throw new IllegalStateException("IICP is off in this session"))
  /** Cumulative execution seconds paid so far across all tuning phases. */
  def cumulativeOptimizationSeconds: Double = log.cost

  // ---------------------------------------------------------------- phase 1

  private def collectQcsaSamples(ds: Double): Unit = {
    val samples = ArrayBuffer.empty[Observation]
    def runFull(u: Array[Double]): Unit =
      samples += Observation(Dagp.inputVec(u, ds), log.run(space.decode(u), ds).result.totalSeconds, Some(u))
    // 3 LHS start points (paper §3.4)
    space.lhsUnit(3, rng).foreach(runFull)
    // BO with DAGP over the raw full space until nQcsa executions exist
    while (samples.size < nQcsa)
      runFull(EiMcmc.propose(samples.toSeq, rng, nSamples = 3, nBurn = 8, thin = 3, space.dim,
        nRandom = 192, nLocal = 48, sigmas = Seq(0.08), input = Dagp.inputVec(_, ds))._1)
  }

  // ---------------------------------------------------------------- phase 2

  private def addRqaSample(t: Trial, unit: Option[Array[Double]]): Unit = {
    val Analysis(qcsa, _, sub, features) = analyzed
    val rqaSeconds = qcsa.sensitive.map(t.result.perQuerySeconds).sum
    rqaSamples += ((t, Observation(Dagp.inputVec(features(sub.encode(t.conf)), t.datasizeGB), rqaSeconds, unit)))
  }

  private def boOnRqa(ds: Double, itMin: Int, itMax: Int): Unit = {
    val Analysis(qcsa, _, sub, features) = analyzed
    var iter = 0
    var continue = true
    while (continue) {
      // candidate pool in the important-parameter subspace: global random
      // draws plus coarse and fine perturbations of the incumbent
      val (u, ei) = EiMcmc.propose(rqaSamples.map(_._2).toSeq, rng, nSamples = 4, nBurn = 10, thin = 3, sub.dim,
        nRandom = 320, nLocal = 96, sigmas = Seq(0.08, 0.025), input = u => Dagp.inputVec(features(u), ds))
      addRqaSample(log.run(sub.decode(u), ds, Some(qcsa.sensitive)), Some(u))
      iter += 1
      continue = iter < itMax && (iter < itMin || ei >= Dagp.EiStopThreshold)
    }
  }

  private def finishAtDs(ds: Double): TuningResult = {
    // Pick the configuration whose DAGP posterior-mean RQA time at this
    // datasize is lowest: the surrogate denoises single observations, so
    // LOCAT sidesteps the winner's curse of argmin-over-noisy-runs.
    val atDs = rqaSamples.filter(_._1.datasizeGB == ds)
    val model = EiMcmc.fitLogSeconds(rqaSamples.map(_._2).toSeq, rng, nSamples = 4, nBurn = 10, thin = 3)
    val (mus, _) = model.predictBatch(atDs.map(_._2.x).toArray)
    log.result(log.run(atDs(atDs.indices.minBy(i => mus(i)))._1.conf, ds))
  }

  /** Full LOCAT procedure for the first (or only) datasize. */
  def tuneInitial(ds: Double): TuningResult = {
    if (analysis.nonEmpty) throw new IllegalStateException("tuneInitial may only run once per session")
    collectQcsaSamples(ds)
    val fullRuns = log.trials
    val qcsa = Qcsa.analyze(fullRuns.map(_.result.perQuerySeconds), objective.queries)
    val iicp = Option.when(useIicp)(Iicp.fit(space, fullRuns.take(nIicp).map(t => (t.conf, t.result.totalSeconds))))
    // Non-important parameters stay at their Spark defaults — LOCAT only
    // tunes the important ones (§3.3); tuning the rest can counteract the
    // gains (§5.6). Resource-sizing parameters are the exception: their
    // "defaults" are meaningless on a real cluster (§5.12 derives their
    // ranges from cluster capacity), so any CPS-dropped resource parameter
    // is pinned at the best configuration seen during sample collection.
    val resourceFamily = space.params.filter(p =>
      p.resource || p.name == "spark.executor.instances" || p.name == "spark.default.parallelism")
      .map(_.name).toSet
    val best = log.best.conf
    val pinned = ConfigValues(space.defaults.values.map { case (k, v) => k -> (if (resourceFamily(k)) best(k) else v) })
    // With IICP off (Fig 15 "AP"), the DAGP input is the raw 38-dim encoding.
    analysis = Some(iicp.fold(Analysis(qcsa, None, space, identity))(m =>
      Analysis(qcsa, iicp, space.subspace(m.keptParams, pinned), m.featuresOfSubspaceUnit)))
    fullRuns.foreach(addRqaSample(_, None))
    boOnRqa(ds, minIter, maxIter)
    finishAtDs(ds)
  }

  /** Online continuation when the datasize changes: DAGP already knows `ds`
    * as an input, so only a short RQA-only BO refinement runs.
    */
  def tuneNext(ds: Double): TuningResult = {
    if (analysis.isEmpty) throw new IllegalStateException("tuneNext requires tuneInitial")
    val n = log.size
    boOnRqa(ds, nextMinIter, nextMaxIter)
    val r = finishAtDs(ds)
    // report only this datasize's trials
    TuningResult(r.trials.drop(n), r.best)
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
