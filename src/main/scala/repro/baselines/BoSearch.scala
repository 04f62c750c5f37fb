package repro.baselines

import repro.core.{ConfigSpace, ConfigValues, TrialLog, TuningObjective, TuningResult}
import repro.gp.{EiMcmc, GpKernel}
import scala.util.Random

/** Shared plain GP-BO loop used by the SOTA baselines (Tuneful's search
  * phase, GBO-RL's guided BO). Unlike LOCAT it is NOT datasize-aware, always
  * executes the full application, and searches whatever space it is given
  * (Tuneful passes a subspace that holds its non-significant parameters at
  * their defaults).
  *
  * @param candidateFilter optional predicate over decoded configs (GBO-RL's
  *                        analytical memory model prunes infeasible ones)
  */
object BoSearch {
  /** Most recent trials the GP trains on. */
  private val GpTrainCap = 80

  /** Append `nInit` LHS points and `nIter` BO picks to `log`. The GP trains
    * only on the trials this call adds.
    */
  def run(log: TrialLog, space: ConfigSpace, ds: Double, rng: Random,
          nInit: Int, nIter: Int,
          candidateFilter: ConfigValues => Boolean = _ => true): Unit = {
    val kernel = GpKernel.Matern52(ard = false)
    val start = log.size

    def eval(u: Array[Double]): Unit = log.run(space.decode(u), ds)

    /** A random point satisfying the filter (bounded retries, then give up
      * on the constraint — never on the evaluation). */
    def filteredRandom(): Array[Double] = {
      var tries = 0
      var u = space.randomUnit(rng)
      while (!candidateFilter(space.decode(u)) && tries < 500) { u = space.randomUnit(rng); tries += 1 }
      u
    }

    if (nInit > 0) space.lhsUnit(nInit, rng).foreach { u =>
      eval(if (candidateFilter(space.decode(u))) u else filteredRandom())
    }
    if (log.size == start) eval(filteredRandom()) // GP needs at least one point

    val unitOf = scala.collection.mutable.Map.empty[Int, Array[Double]]
    // reconstruct units for GP training from configs (bools/ints are exact)
    def unit(i: Int): Array[Double] = unitOf.getOrElseUpdate(i, space.encode(log(i).conf))

    var it = 0
    while (it < nIter) {
      val idx = (start until log.size).takeRight(GpTrainCap)
      val xs = idx.map(unit)
      val ys = idx.map(i => math.log(log(i).result.totalSeconds))
      val model = EiMcmc.fitMarginalized(kernel, xs, ys, rng, nSamples = 3, nBurn = 6, thin = 2)
      val best = ys.min
      // generate and filter in draw order, then score the survivors in one batch
      val pool = EiMcmc.candidatePool(rng, space.dim, 120, Some(xs(ys.indexOf(best))), 40)
        .filter(u => candidateFilter(space.decode(u)))
      val (bestI, bestEi) = model.maxEi(pool, best)
      // nothing scored above −∞: no candidate passed the filter, or every EI was NaN
      eval(if (bestEi > Double.NegativeInfinity) pool(bestI) else space.randomUnit(rng))
      it += 1
    }
  }
}

/** Pure random search — a sanity baseline for tests, not a paper comparator. */
final class RandomSearch(budget: Int) extends repro.core.Tuner {
  override def name: String = s"Random($budget)"
  override def tune(objective: TuningObjective, space: ConfigSpace, ds: Double, seed: Long): TuningResult = {
    val rng = new Random(seed)
    val log = new TrialLog(objective)
    (0 until budget).foreach(_ => log.run(space.random(rng), ds))
    log.result(log.best)
  }
}
