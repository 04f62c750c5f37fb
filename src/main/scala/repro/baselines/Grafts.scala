package repro.baselines

import repro.core._
import repro.stats.Rng

/** Objective wrapper that restricts execution to an RQA subset — the
  * machinery for grafting QCSA onto the SOTA tuners (paper §5.10, Fig 21).
  */
private[baselines] final class SubsetObjective(inner: TuningObjective, rqa: Seq[String]) extends TuningObjective {
  override def workloadName: String = inner.workloadName
  override def queries: Seq[String] = rqa
  override def run(conf: ConfigValues, ds: Double, subset: Option[Seq[String]]): ExecResult =
    inner.run(conf, ds, Some(subset.getOrElse(rqa)))
}

/** Graft LOCAT's QCSA and/or IICP sample-reduction onto any base tuner:
  *  - a shared random-sampling phase provides the QCSA/IICP observations
  *    (full-application runs, cost counted);
  *  - with QCSA, the base tuner then optimizes the RQA only (cheaper runs);
  *  - with IICP, it searches only the CPS-kept subspace, the rest held at
  *    the best sampled configuration (the KPCA extraction is DAGP-specific
  *    and is not grafted — documented simplification, DESIGN.md §2);
  *  - the final best configuration is verified with one full run.
  */
final class QcsaIicpGraft(
    base: Tuner,
    useQcsa: Boolean,
    useIicp: Boolean,
    nQcsa: Int = 30,
    nIicp: Int = 20,
) extends Tuner {
  override def name: String = {
    val tag = (if (useQcsa) "+QCSA" else "") + (if (useIicp) "+IICP" else "")
    s"${base.name}$tag"
  }

  override def tune(objective: TuningObjective, space: ConfigSpace, ds: Double, seed: Long): TuningResult = {
    val rng = Rng(seed * 17 + 5)
    val log = new TrialLog(objective)

    val nSampling = if (useQcsa) nQcsa else if (useIicp) nIicp else 0
    (0 until nSampling).foreach(_ => log.run(space.random(rng), ds))
    val samples = log.trials

    val rqa =
      if (useQcsa) Qcsa.analyze(samples.map(_.result.perQuerySeconds), objective.queries).sensitive
      else objective.queries

    val searchSpace =
      if (useIicp) {
        val kept = Iicp.cps(space, samples.take(nIicp).map(t => (t.conf, t.result.totalSeconds))).map(_._1)
        space.subspace(kept, log.best.conf)
      } else space

    val inner = base.tune(new SubsetObjective(objective, rqa), searchSpace, ds, seed)
    inner.trials.foreach(log.add)

    // verify the best configuration on the full application
    log.result(log.run(inner.bestConf, ds))
  }
}
