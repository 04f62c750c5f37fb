package repro.baselines

import repro.core.{ConfigSpace, ConfigValues, TrialLog}
import repro.gp.EiMcmc
import repro.gp.EiMcmc.Observation
import scala.collection.mutable.ArrayBuffer
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
  /** Append `nInit` LHS points and `nIter` BO picks to `log`. The GP trains
    * only on the trials this call adds.
    */
  def run(log: TrialLog, space: ConfigSpace, ds: Double, rng: Random,
          nInit: Int, nIter: Int,
          candidateFilter: ConfigValues => Boolean = _ => true): Unit = {
    // GP inputs are the trials' encoded configs (bools/ints are exact), each
    // also the unit the pool perturbs when its trial is the fastest
    val obs = ArrayBuffer.empty[Observation]
    def eval(u: Array[Double]): Unit = {
      val t = log.run(space.decode(u), ds)
      val x = space.encode(t.conf)
      obs += Observation(x, t.result.totalSeconds, Some(x))
    }

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
    if (obs.isEmpty) eval(filteredRandom()) // GP needs at least one point

    (0 until nIter).foreach { _ =>
      eval(EiMcmc.propose(obs.toSeq, rng, nSamples = 3, nBurn = 6, thin = 2, space.dim,
        nRandom = 120, nLocal = 40, sigmas = Seq(0.08), input = identity,
        accept = u => candidateFilter(space.decode(u)))._1)
    }
  }
}
