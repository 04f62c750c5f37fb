package repro.baselines

import repro.core.{ConfigSpace, ConfigValues, ExecResult, Trial, TuningObjective}
import repro.gp.{EiMcmc, GpKernel}
import scala.util.Random

/** Shared plain GP-BO loop used by the SOTA baselines (Tuneful's search
  * phase, GBO-RL's guided BO). Unlike LOCAT it is NOT datasize-aware, always
  * executes the full application, and searches whatever space it is given.
  *
  * @param candidateFilter optional predicate over decoded configs (GBO-RL's
  *                        analytical memory model prunes infeasible ones)
  * @param pinned          values merged over decoded candidates (Tuneful pins
  *                        non-significant parameters)
  */
object BoSearch {
  final case class State(trials: Vector[Trial], costSeconds: Double) {
    def best: Trial = trials.minBy(_.result.totalSeconds)
  }

  def run(objective: TuningObjective, space: ConfigSpace, ds: Double, rng: Random,
          nInit: Int, nIter: Int,
          pinned: Map[String, Double] = Map.empty,
          candidateFilter: ConfigValues => Boolean = _ => true,
          gpTrainCap: Int = 80,
          seedTrials: Vector[Trial] = Vector.empty): State = {
    val kernel = GpKernel.Matern52(ard = false)
    var trials = seedTrials
    var cost = seedTrials.map(_.costSeconds).sum

    def confOf(u: Array[Double]): ConfigValues = ConfigValues(space.decode(u).values ++ pinned)

    def eval(u: Array[Double]): Unit = {
      val conf = confOf(u)
      val res = objective.run(conf, ds, None)
      trials :+= Trial(conf, ds, res, res.totalSeconds, fullApp = true)
      cost += res.totalSeconds
    }

    /** A random point satisfying the filter (bounded retries, then give up
      * on the constraint — never on the evaluation). */
    def filteredRandom(): Array[Double] = {
      var tries = 0
      var u = space.randomUnit(rng)
      while (!candidateFilter(confOf(u)) && tries < 500) { u = space.randomUnit(rng); tries += 1 }
      u
    }

    if (nInit > 0) space.lhsUnit(nInit, rng).foreach { u =>
      eval(if (candidateFilter(confOf(u))) u else filteredRandom())
    }
    if (trials.isEmpty) eval(filteredRandom()) // GP needs at least one point

    val unitOf = scala.collection.mutable.Map.empty[Int, Array[Double]]
    // reconstruct units for GP training from configs (bools/ints are exact)
    def unit(i: Int): Array[Double] = unitOf.getOrElseUpdate(i, space.encode(trials(i).conf))

    var it = 0
    while (it < nIter) {
      val idx = trials.indices.takeRight(gpTrainCap)
      val xs = idx.map(unit)
      val ys = idx.map(i => math.log(trials(i).result.totalSeconds))
      val model = EiMcmc.fitMarginalized(kernel, xs, ys, rng, nSamples = 3, nBurn = 6, thin = 2)
      val best = ys.min
      val incumbent = xs(ys.indexOf(best))
      // generate and filter in draw order, then score the survivors in one batch
      val pool = Array.tabulate(160) { tries =>
        if (tries < 120) space.randomUnit(rng)
        else incumbent.map(v => math.min(1.0, math.max(0.0, v + rng.nextGaussian() * 0.08)))
      }.filter(u => candidateFilter(confOf(u)))
      val (bestI, bestEi) = model.maxEi(pool, best)
      // nothing scored above −∞: no candidate passed the filter, or every EI was NaN
      eval(if (bestEi > Double.NegativeInfinity) pool(bestI) else space.randomUnit(rng))
      it += 1
    }
    State(trials, cost)
  }
}

/** Pure random search — a sanity baseline for tests, not a paper comparator. */
final class RandomSearch(budget: Int) extends repro.core.Tuner {
  override def name: String = s"Random($budget)"
  override def tune(objective: TuningObjective, space: ConfigSpace, ds: Double, seed: Long): repro.core.TuningResult = {
    val rng = new Random(seed)
    var trials = Vector.empty[Trial]
    var cost = 0.0
    (0 until budget).foreach { _ =>
      val conf = space.random(rng)
      val res: ExecResult = objective.run(conf, ds, None)
      trials :+= Trial(conf, ds, res, res.totalSeconds, fullApp = true)
      cost += res.totalSeconds
    }
    val best = trials.minBy(_.result.totalSeconds)
    repro.core.TuningResult(name, best.conf, best.result.totalSeconds, cost, trials)
  }
}
