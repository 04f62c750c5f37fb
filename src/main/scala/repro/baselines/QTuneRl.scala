package repro.baselines

import repro.core._
import repro.gp.EiMcmc
import repro.ml.Gbrt
import repro.stats.Rng

/** QTune (Li et al. — VLDB 2019) — reinforcement-learning configuration tuner.
  *
  * The original is a DDPG actor-critic over database knobs. We implement the
  * same control loop at matching sample cost (documented substitution,
  * DESIGN.md §2): a critic (boosted-tree value model, refit periodically)
  * estimates execution time from the action (configuration); the actor picks
  * actions by perturbing the best critic-scored action with
  * exploration noise that decays over episodes, plus ε-greedy random
  * exploration. Every episode executes the full application once — RL's
  * sample-inefficiency is exactly why QTune is the slowest comparator in the
  * paper (9.2–9.7× LOCAT's optimization time).
  */
final class QTuneRl(
    episodes: Int = 320,
    criticRefit: Int = 15,
) extends Tuner {
  override def name: String = "QTune"

  override def tune(objective: TuningObjective, space: ConfigSpace, ds: Double, seed: Long): TuningResult = {
    val rng = Rng(seed)
    val log = new TrialLog(objective)
    var critic: Option[Gbrt] = None

    var bestU = space.randomUnit(rng)
    var bestT = log.run(space.decode(bestU), ds).result.totalSeconds

    var ep = 1
    while (ep < episodes) {
      val frac = ep.toDouble / episodes
      // ε-greedy rate and exploration noise decay from 0.5 and 0.30
      val eps = 0.5 * (1.0 - frac)
      val noise = 0.30 * (1.0 - 0.8 * frac)
      val action: Array[Double] =
        if (rng.nextDouble() < eps) space.randomUnit(rng)
        else critic match {
          case Some(cr) =>
            // actor step, DDPG-style: the policy follows the critic's value
            // estimate over the action space (global candidates plus local
            // refinements of the incumbent), with exploration noise on top
            val cands = EiMcmc.candidatePool(rng, space.dim, 16, Some(bestU), 8, Seq(noise))
            val greedy = cands.minBy(u => cr.predict(u))
            greedy.map(v => clamp(v + rng.nextGaussian() * noise * 0.5))
          case None => bestU.map(v => clamp(v + rng.nextGaussian() * noise))
        }
      val t = log.run(space.decode(action), ds)
      if (t.result.totalSeconds < bestT) { bestT = t.result.totalSeconds; bestU = space.encode(t.conf) }
      if (ep % criticRefit == 0) {
        val xs = log.trials.map(tr => space.encode(tr.conf))
        val ys = log.trials.map(tr => math.log(tr.result.totalSeconds))
        critic = Some(Gbrt.fit(xs, ys, nTrees = 60, maxDepth = 3))
      }
      ep += 1
    }

    log.result(log.best)
  }

  private def clamp(v: Double): Double = math.min(1.0, math.max(0.0, v))
}
