package repro.gp

import java.util.stream.IntStream
import repro.stats.Stats
import scala.util.Random

/** Expected Improvement with MCMC hyperparameter marginalization
  * (Snoek et al. 2012), LOCAT's acquisition function (paper §3.4).
  *
  * Instead of point-estimating the GP hyperparameters, we draw `nSamples`
  * hyperparameter vectors from their posterior (Metropolis–Hastings on the
  * log marginal likelihood with a broad N(0, 2²) log-space prior) and average
  * the EI under each fitted GP.
  */
object EiMcmc {

  /** One GP per posterior hyperparameter sample. */
  final case class Marginalized(gps: Seq[GaussianProcess]) {
    def predict(x: Array[Double]): (Double, Double) = {
      val (mu, sd) = predictBatch(Array(x))
      (mu(0), sd(0))
    }

    /** Mixture moments at every point of `xs`: mean of the draws' means;
      * variance = mean(var + mean²) − mean².
      */
    def predictBatch(xs: Array[Array[Double]]): (Array[Double], Array[Double]) = {
      val m = xs.length
      val mu = new Array[Double](m)
      val second = new Array[Double](m)
      drawMoments(xs).foreach { case (gm, gs) =>
        var c = 0
        while (c < m) { mu(c) += gm(c); second(c) += gs(c) * gs(c) + gm(c) * gm(c); c += 1 }
      }
      val sd = new Array[Double](m)
      var c = 0
      while (c < m) {
        mu(c) = mu(c) / gps.size
        sd(c) = math.sqrt(math.max(second(c) / gps.size - mu(c) * mu(c), 1e-12))
        c += 1
      }
      (mu, sd)
    }

    /** Expected improvement (minimization) averaged over hyper samples. */
    def ei(x: Array[Double], best: Double): Double = eiBatch(Array(x), best)(0)

    /** [[ei]] at every point of `xs`, averaged over the draws' [[drawMoments]]. */
    def eiBatch(xs: Array[Array[Double]], best: Double): Array[Double] = {
      val tot = new Array[Double](xs.length)
      drawMoments(xs).foreach { case (mu, sd) =>
        var c = 0
        while (c < xs.length) {
          val imp = best - mu(c)
          tot(c) += (if (sd(c) < 1e-12) math.max(imp, 0.0)
                     else imp * Stats.normCdf(imp / sd(c)) + sd(c) * Stats.normPdf(imp / sd(c)))
          c += 1
        }
      }
      tot.map(_ / gps.size)
    }

    /** Index and EI of the first candidate with the strictly highest EI;
      * (0, −∞) when none beats −∞ (every EI NaN).
      */
    def maxEi(xs: Array[Array[Double]], best: Double): (Int, Double) = {
      val e = eiBatch(xs, best)
      var bestI = 0; var bestEi = Double.NegativeInfinity
      var c = 0
      while (c < e.length) { if (e(c) > bestEi) { bestEi = e(c); bestI = c }; c += 1 }
      (bestI, bestEi)
    }

    /** Each draw's predictive (means, sds) at every point of `xs`, in draw
      * order. A fitted GP that MH repeated (it rejected every move between
      * two draws) is scored once, and one task per (distinct GP, block of
      * `GaussianProcess.Block` candidates) writes its range of that GP's
      * arrays through [[fanOut]], in parallel when `xs` holds more than one
      * block. Every candidate's prediction keeps its own operation order, so
      * the result does not depend on the split or the thread count.
      */
    private def drawMoments(xs: Array[Array[Double]]): Seq[(Array[Double], Array[Double])] = {
      val m = xs.length
      val distinct = gps.foldLeft(Vector.empty[GaussianProcess])((d, g) => if (d.exists(_ eq g)) d else d :+ g)
      val blocks = (m + Block - 1) / Block
      val moments = distinct.map(_ => (new Array[Double](m), new Array[Double](m)))
      fanOut(distinct.size * blocks, m > Block) { task =>
        val from = task % blocks * Block
        val (mu, sd) = moments(task / blocks)
        distinct(task / blocks).predictInto(xs, from, math.min(m, from + Block), mu, sd)
      }
      gps.map(g => moments(distinct.indexWhere(_ eq g)))
    }
  }

  private val Block = GaussianProcess.Block

  /** Smallest training window whose MH proposals [[fitMarginalized]] fits
    * in parallel: below it a parallel round costs about as much as a fit.
    */
  private val PrefetchFrom = 32

  /** Run `task(0 until tasks)`: when `parallel`, as a parallel stream on the
    * common ForkJoinPool (or the ForkJoinPool the caller runs in), the caller
    * joining in; otherwise one after another on the calling thread. Tasks
    * must write disjoint outputs.
    */
  private def fanOut(tasks: Int, parallel: Boolean)(task: Int => Unit): Unit =
    if (parallel) IntStream.range(0, tasks).parallel().forEach(t => task(t))
    else (0 until tasks).foreach(task)

  /** Standard deviation of the MH random-walk proposal in log-hyper space. */
  private val ProposalSd = 0.25

  /** MH-sample `nSamples` hyper vectors and fit one GP each.
    *
    * `nBurn` steps of burn-in, then `thin`-spaced draws. Each likelihood
    * evaluation refits a Cholesky (O(n³)), so [[fitLogSeconds]] trains on a
    * window of the most recent observations.
    *
    * The chain is prefetched (Brockwell 2006): the calling thread first draws
    * every step's Gaussians (each × `ProposalSd`) and log-uniform, in the
    * order of a chain that fits one proposal per step. From `current` at step
    * k it then fits three proposals in one [[fanOut]] round (round 0 adds the
    * start point, whose failed fit propagates): current + n_k for step k, and
    * step k + 1's two branches, current + n_{k+1} (step k rejected) and
    * (current + n_k) + n_{k+1} (step k accepted). Each step is decided with
    * the same operands and the same comparison as the one-step chain, and a
    * draw is the fitted GP object current after its step, so the draws are
    * the one-step chain's, bit for bit, on any pool. A window of fewer than
    * `PrefetchFrom` points fits one proposal per step on the calling thread,
    * and so does a trailing odd step.
    *
    * A proposal whose fit fails (a Gram matrix that no jitter makes factor,
    * which takes non-finite inputs) is rejected and still consumes its
    * pre-drawn uniform; a chain that drew the uniform after the fit skipped
    * it. Every other draw order is unchanged.
    */
  def fitMarginalized(kernel: GpKernel.Matern52, x: Seq[Array[Double]], y: Seq[Double], rng: Random,
                      nSamples: Int, nBurn: Int, thin: Int = 3): Marginalized = {
    val start = GaussianProcess.defaultLogHypers(kernel, x.head.length)
    val totalSteps = nBurn + nSamples * thin
    val (noise, logU) = Array.fill(totalSteps)(
      (Array.fill(start.length)(rng.nextGaussian() * ProposalSd), math.log(rng.nextDouble() + 1e-300))).unzip
    val prefetch = x.size >= PrefetchFrom
    def proposal(from: Array[Double], k: Int): Array[Double] = Array.tabulate(from.length)(i => from(i) + noise(k)(i))
    def tryFit(h: Array[Double]): () => Option[GaussianProcess] = () =>
      try Some(GaussianProcess.fit(kernel, x, y, h))
      catch { case _: IllegalStateException => None }

    var current = start
    var currentGp: GaussianProcess = null
    var currentLp = 0.0
    val draws = scala.collection.mutable.ArrayBuffer.empty[GaussianProcess]
    // MH step k on `h`, fitted as `fit`; true when the chain moves to `h`
    def decide(k: Int, h: Array[Double], fit: Option[GaussianProcess]): Boolean = {
      val accepted = fit.exists { gp =>
        val lp = logPosterior(gp)
        val accept = logU(k) < lp - currentLp
        if (accept) { current = h; currentGp = gp; currentLp = lp }
        accept
      }
      if (k + 1 > nBurn && (k + 1 - nBurn) % thin == 0) draws += currentGp
      accepted
    }
    var k = 0
    while (k < totalSteps) {
      val p = proposal(current, k)
      // step k + 1's proposal if step k rejects, and if it accepts
      val ahead = if (prefetch && k + 1 < totalSteps) Seq(proposal(current, k + 1), proposal(p, k + 1)) else Nil
      val startFit = if (k == 0) Seq(() => Some(GaussianProcess.fit(kernel, x, y, start))) else Nil
      val round = (startFit ++ (p +: ahead).map(tryFit)).toArray
      val fits = new Array[Option[GaussianProcess]](round.length)
      fanOut(round.length, prefetch)(i => fits(i) = round(i)())
      if (k == 0) { currentGp = fits.head.get; currentLp = logPosterior(currentGp) }
      val stepFits = fits.drop(startFit.size)
      val accepted = decide(k, p, stepFits.head)
      if (ahead.nonEmpty) {
        val branch = if (accepted) 1 else 0
        decide(k + 1, ahead(branch), stepFits(1 + branch))
      }
      k += 1 + ahead.size / 2
    }
    // a chain of no steps draws its start point
    if (draws.isEmpty) draws += Option(currentGp).getOrElse(GaussianProcess.fit(kernel, x, y, start))
    Marginalized(draws.toSeq)
  }

  private def logPosterior(gp: GaussianProcess): Double = {
    // broad zero-mean Gaussian prior over log-hypers, sd = 2
    val prior = gp.logHypers.map(h => -0.5 * h * h / 4.0).sum
    gp.logMarginalLikelihood + prior
  }

  /** One observation a BO step trains on: the GP input `x`, the measured
    * `seconds` (the GP models their log) and, for a configuration a BO step
    * proposed, the unit it was proposed at.
    */
  final case class Observation(x: Array[Double], seconds: Double, unit: Option[Array[Double]]) {
    require(seconds > 0, "execution time must be positive")
  }

  /** Most recent observations a BO step trains on: each likelihood
    * evaluation is O(n³).
    */
  private val TrainWindow = 80

  /** The GP-BO surrogate: the marginalized isotropic Matérn-5/2 GP over the
    * log seconds of the last `TrainWindow` observations.
    */
  def fitLogSeconds(obs: Seq[Observation], rng: Random, nSamples: Int, nBurn: Int, thin: Int): Marginalized = {
    val window = obs.takeRight(TrainWindow)
    fitMarginalized(GpKernel.Matern52(ard = false), window.map(_.x), window.map(o => math.log(o.seconds)), rng,
      nSamples, nBurn, thin)
  }

  /** One BO step, shared by every GP tuner: fit [[fitLogSeconds]], draw a
    * [[candidatePool]] of `dim`-units around the unit of the fastest windowed
    * observation (when it has one), drop the candidates `accept` rejects, and
    * score the rest at their GP inputs `input(u)`. Returns the highest-EI
    * unit and its EI, or a uniform unit and −∞ when nothing scores (every
    * candidate rejected, or every EI NaN).
    *
    * `accept` and `input` run through [[fanOut]], in parallel when the pool
    * holds more than one block: on several candidates at once and on other
    * threads than the caller's, so both must be pure. Every random draw
    * stays on the calling thread, in its old order; the MH fits
    * are prefetched two steps per round on windows of `PrefetchFrom` points
    * or more (see [[fitMarginalized]]), with the one-step chain's draws.
    */
  def propose(obs: Seq[Observation], rng: Random, nSamples: Int, nBurn: Int, thin: Int,
              dim: Int, nRandom: Int, nLocal: Int, sigmas: Seq[Double],
              input: Array[Double] => Array[Double],
              accept: Array[Double] => Boolean = _ => true): (Array[Double], Double) = {
    val window = obs.takeRight(TrainWindow)
    val model = fitLogSeconds(window, rng, nSamples, nBurn, thin)
    val ys = window.map(o => math.log(o.seconds))
    val best = ys.min
    val pool = candidatePool(rng, dim, nRandom, window(ys.indexOf(best)).unit, nLocal, sigmas)
    // input(u) of each accepted candidate, null for a rejected one
    val inputs = new Array[Array[Double]](pool.length)
    fanOut(pool.length, pool.length > Block)(c => if (accept(pool(c))) inputs(c) = input(pool(c)))
    val kept = pool.indices.filter(inputs(_) != null)
    val (i, ei) = model.maxEi(kept.map(inputs(_)).toArray, best)
    if (ei > Double.NegativeInfinity) (pool(kept(i)), ei) else (Array.fill(dim)(rng.nextDouble()), ei)
  }

  /** The candidate pool every BO step scores: `nRandom` uniform points in
    * the `dim`-cube, then, when there is an incumbent, `nLocal` perturbations
    * of it clamped to the cube, the j-th with sd `sigmas(j % sigmas.size)`.
    */
  def candidatePool(rng: Random, dim: Int, nRandom: Int, incumbent: Option[Array[Double]], nLocal: Int,
                    sigmas: Seq[Double]): Array[Array[Double]] = {
    val random = Array.fill(nRandom)(Array.fill(dim)(rng.nextDouble()))
    val local = incumbent.fold(Array.empty[Array[Double]]) { inc =>
      Array.tabulate(nLocal)(j => inc.map(v => clamp01(v + rng.nextGaussian() * sigmas(j % sigmas.size))))
    }
    random ++ local
  }

  private def clamp01(v: Double): Double = math.min(1.0, math.max(0.0, v))
}
