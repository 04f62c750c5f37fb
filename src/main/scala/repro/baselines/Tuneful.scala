package repro.baselines

import repro.core._
import repro.ml.Gbrt
import repro.stats.Rng

/** Tuneful (Fekry et al. 2020) — significance-aware GP-BO.
  *
  * Two-phase structure, per the original paper:
  *  1. *Significance analysis*: rounds of random full-application executions,
  *     after which a tree-ensemble importance ranking keeps the significant
  *     parameters (the original uses incremental sensitivity analysis; we use
  *     GBRT importance over the same samples — both are tree-based filters).
  *  2. GP-BO over the significant subspace, every other parameter held at
  *     its Spark default.
  *
  * Not datasize-aware (re-tunes from scratch when ds changes) and never
  * removes queries — the two gaps LOCAT exploits.
  */
final class Tuneful(
    saRounds: Int = 2,
    samplesPerRound: Int = 16,
    keepParams: Int = 10,
    boIters: Int = 190,
) extends Tuner {
  override def name: String = "Tuneful"

  override def tune(objective: TuningObjective, space: ConfigSpace, ds: Double, seed: Long): TuningResult = {
    val rng = Rng(seed)
    val log = new TrialLog(objective)

    // Phase 1: significance analysis samples
    (0 until saRounds * samplesPerRound).foreach(_ => log.run(space.random(rng), ds))
    val xs = log.trials.map(t => space.encode(t.conf))
    val ys = log.trials.map(t => math.log(t.result.totalSeconds))
    val gbrt = Gbrt.fit(xs, ys, nTrees = 60, maxDepth = 3)
    val imp = gbrt.featureImportance
    val significant = space.names.zip(imp).sortBy { case (_, i) => -i }.take(keepParams).map(_._1)

    // Phase 2: GP-BO over the significant subspace, others held at defaults
    BoSearch.run(log, space.subspace(significant, space.defaults), ds, rng, nInit = 3, nIter = boIters)
    log.result(log.best)
  }
}
