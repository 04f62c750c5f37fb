package repro.baselines

import repro.core.{ConfigSpace, TrialLog, Tuner, TuningObjective, TuningResult}
import repro.stats.Rng

/** Pure random search — a sanity baseline for tests, not a paper comparator. */
final class RandomSearch(budget: Int) extends Tuner {
  override def name: String = s"Random($budget)"
  override def tune(objective: TuningObjective, space: ConfigSpace, ds: Double, seed: Long): TuningResult = {
    val rng = Rng(seed)
    val log = new TrialLog(objective)
    (0 until budget).foreach(_ => log.run(space.random(rng), ds))
    log.result(log.best)
  }
}
