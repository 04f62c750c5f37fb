package repro.gp

import org.scalatest.funsuite.AnyFunSuite
import repro.TestPools.onPool
import repro.core.Dagp
import repro.linalg.{Mat, RowCholesky}
import repro.stats.{Rng, Stats}
import scala.util.Random

/** The GP as it was before kernels were prepared and predictions batched:
  * exponentials taken per coordinate, the Gram matrix factored row by row,
  * one point predicted at a time. The exact-equality tests below hold the
  * optimized code to these results.
  */
private object ReferenceGp {
  def kernel(k: GpKernel.Matern52, x: Array[Double], y: Array[Double], h: Array[Double]): Double = {
    val ard = k match { case GpKernel.Matern52(a) => a }
    var s = 0.0; var i = 0
    while (i < x.length) {
      val l = math.exp(if (ard) h(1 + i) else h(1))
      val d = (x(i) - y(i)) / l
      s += d * d; i += 1
    }
    val sf2 = math.exp(2.0 * h(0))
    val a = math.sqrt(5.0) * math.sqrt(s)
    sf2 * (1.0 + a + a * a / 3.0) * math.exp(-a)
  }

  final class Fitted(k: GpKernel.Matern52, x: Array[Array[Double]], h: Array[Double], chol: Mat, yStdz: Array[Double],
                     alpha: Array[Double], yMean: Double, yStd: Double, val jitterEscalations: Int) {
    def predict(xs: Array[Double]): (Double, Double) = {
      val n = x.length
      val kStar = Array.tabulate(n)(i => kernel(k, xs, x(i), h))
      var mu = 0.0
      var i = 0
      while (i < n) { mu += kStar(i) * alpha(i); i += 1 }
      val v = Mat.solveLower(chol, kStar)
      var kss = kernel(k, xs, xs, h)
      i = 0
      while (i < n) { kss -= v(i) * v(i); i += 1 }
      (mu * yStd + yMean, math.sqrt(math.max(kss, 1e-12)) * yStd)
    }

    def logMarginalLikelihood: Double = {
      val n = x.length
      var quad = 0.0
      var i = 0
      while (i < n) { quad += yStdz(i) * alpha(i); i += 1 }
      var logDet = 0.0
      i = 0
      while (i < n) { logDet += math.log(chol(i, i)); i += 1 }
      -0.5 * quad - logDet - 0.5 * n * math.log(2.0 * math.Pi)
    }
  }

  def fit(k: GpKernel.Matern52, x: Array[Array[Double]], y: Array[Double], h: Array[Double]): Fitted = {
    val n = x.length
    val yMean = y.sum / n
    val yStd0 = math.sqrt(y.map(v => (v - yMean) * (v - yMean)).sum / n)
    val yStd = if (yStd0 < 1e-12) 1.0 else yStd0
    val yStdz = y.map(v => (v - yMean) / yStd)
    val noise2 = math.exp(2.0 * h.last)
    var jitter = 1e-10
    var attempt = 0
    while (true) {
      val m = Mat.zeros(n, n)
      for (i <- 0 until n; j <- i until n) { val v = kernel(k, x(i), x(j), h); m(i, j) = v; m(j, i) = v }
      (0 until n).foreach(i => m(i, i) += noise2 + jitter)
      try {
        val l = RowCholesky.factor(m)
        return new Fitted(k, x, h, l, yStdz, Mat.choleskySolve(l, yStdz), yMean, yStd, attempt)
      } catch {
        case _: IllegalArgumentException if attempt < 6 => jitter *= 100.0; attempt += 1
      }
    }
    throw new IllegalStateException("unreachable")
  }

  def of(gp: GaussianProcess): Fitted = fit(gp.kernel, gp.x, gp.yRaw, gp.logHypers)

  def ei(gps: Seq[GaussianProcess], x: Array[Double], best: Double): Double = {
    var tot = 0.0
    gps.foreach { gp =>
      val (mu, sd) = of(gp).predict(x)
      val imp = best - mu
      tot += (if (sd < 1e-12) math.max(imp, 0.0)
              else imp * Stats.normCdf(imp / sd) + sd * Stats.normPdf(imp / sd))
    }
    tot / gps.size
  }
}

/** `EiMcmc.fitMarginalized`'s Metropolis–Hastings chain as it was before its
  * fits were prefetched: one proposal fitted per step, each step's Gaussians
  * drawn before its fit and its uniform after. Returns the draws.
  */
private object ReferenceChain {
  private def logPosterior(gp: GaussianProcess): Double =
    gp.logMarginalLikelihood + gp.logHypers.map(h => -0.5 * h * h / 4.0).sum

  def fit(kernel: GpKernel.Matern52, x: Seq[Array[Double]], y: Seq[Double], rng: Random,
          nSamples: Int, nBurn: Int, thin: Int): Seq[GaussianProcess] = {
    var current = GaussianProcess.defaultLogHypers(kernel, x.head.length)
    var currentGp = GaussianProcess.fit(kernel, x, y, current)
    var currentLp = logPosterior(currentGp)
    val draws = scala.collection.mutable.ArrayBuffer.empty[GaussianProcess]
    val totalSteps = nBurn + nSamples * thin
    var step = 0
    while (step < totalSteps) {
      val proposal = current.map(h => h + rng.nextGaussian() * 0.25)
      val tryGp =
        try Some(GaussianProcess.fit(kernel, x, y, proposal))
        catch { case _: IllegalStateException => None }
      tryGp.foreach { gp =>
        val lp = logPosterior(gp)
        if (math.log(rng.nextDouble() + 1e-300) < lp - currentLp) {
          current = proposal; currentGp = gp; currentLp = lp
        }
      }
      step += 1
      if (step > nBurn && (step - nBurn) % thin == 0) draws += currentGp
    }
    if (draws.isEmpty) draws += currentGp
    draws.toSeq
  }
}

class GpSpec extends AnyFunSuite {

  private val m52 = GpKernel.Matern52(ard = false)
  private val allKernels = Seq(m52, GpKernel.Matern52(ard = true))

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  /** Predictive means and sds at every point of `xs`, scored in place. */
  private def predictBatch(gp: GaussianProcess, xs: Array[Array[Double]]): (Array[Double], Array[Double]) = {
    val (mu, sd) = (new Array[Double](xs.length), new Array[Double](xs.length))
    gp.predictInto(xs, 0, xs.length, mu, sd)
    (mu, sd)
  }

  /** One point's predictive mean and sd: the one-candidate batch. */
  private def predict(gp: GaussianProcess, x: Array[Double]): (Double, Double) = {
    val (mu, sd) = predictBatch(gp, Array(x))
    (mu(0), sd(0))
  }

  // --- LHS ------------------------------------------------------------------

  test("LHS returns n points of dimension d in [0,1]") {
    val pts = Lhs.sample(10, 4, new Random(1))
    assert(pts.size == 10)
    assert(pts.forall(_.length == 4))
    assert(pts.forall(_.forall(v => v >= 0.0 && v < 1.0)))
  }

  test("LHS stratifies: exactly one point per stratum per dimension") {
    val n = 16
    val pts = Lhs.sample(n, 3, new Random(2))
    (0 until 3).foreach { d =>
      val strata = pts.map(p => (p(d) * n).toInt).sorted
      assert(strata == (0 until n).toList, s"dim $d strata=$strata")
    }
  }

  test("LHS rejects invalid sizes") {
    intercept[IllegalArgumentException] { Lhs.sample(0, 3, new Random(1)) }
    intercept[IllegalArgumentException] { Lhs.sample(3, 0, new Random(1)) }
  }

  // --- kernels ---------------------------------------------------------------

  test("kernels are symmetric and maximal at zero distance") {
    val rng = new Random(3)
    val h = Array(0.2, math.log(0.4))
    for (_ <- 0 until 20) {
      val x = Array.fill(3)(rng.nextDouble())
      val y = Array.fill(3)(rng.nextDouble())
      assert(math.abs(m52(x, y, h) - m52(y, x, h)) < 1e-12)
      assert(m52(x, x, h) >= m52(x, y, h) - 1e-12)
    }
  }

  test("Matern52 kernel closed form at unit distance") {
    val h = Array(0.0, 0.0) // σf=1, ℓ=1
    val v = m52(Array(0.0), Array(1.0), h)
    val a = math.sqrt(5.0)
    assert(math.abs(v - (1.0 + a + 5.0 / 3.0) * math.exp(-a)) < 1e-12)
  }

  test("ARD kernel uses per-dimension lengthscales") {
    val k = GpKernel.Matern52(ard = true)
    // tiny lengthscale in dim 0, huge in dim 1
    val h = Array(0.0, math.log(0.01), math.log(100.0))
    val near = k(Array(0.0, 0.0), Array(0.0, 1.0), h) // moves only in the "ignored" dim
    val far = k(Array(0.0, 0.0), Array(0.1, 0.0), h)  // moves in the sensitive dim
    assert(near > 0.99 && far < 0.01)
    assert(k.nHypers(2) == 3)
  }

  test("a prepared kernel equals the kernel evaluated from log-hypers, bit for bit") {
    val rng = new Random(11)
    for (k <- allKernels; d <- Seq(1, 4, 39); _ <- 0 until 20) {
      val h = Array.fill(k.nHypers(d) + 1)(rng.nextGaussian()) // + the GP's trailing noise entry
      val prepared = k.at(h)
      val x = Array.fill(d)(rng.nextDouble())
      val y = Array.fill(d)(rng.nextDouble())
      assert(prepared(x, y) == k(x, y, h))
      assert(prepared(x, y) == ReferenceGp.kernel(k, x, y, h))
      assert(prepared(x, x) == ReferenceGp.kernel(k, x, x, h))
    }
  }

  // --- GP regression -----------------------------------------------------------

  test("predictBatch equals one-point-at-a-time prediction exactly") {
    // pools of 63/64/65 straddle the 64-candidate scoring block
    val rng = new Random(12)
    for (k <- allKernels; d <- Seq(1, 11, 39); n <- Seq(1, 5, 80)) {
      val xs = Array.fill(n)(Array.fill(d)(rng.nextDouble()))
      val ys = xs.map(x => math.sin(3 * x(0)) + x(d - 1) + 0.1 * rng.nextGaussian())
      val h = Array.fill(k.nHypers(d) + 1)(0.5 * rng.nextGaussian())
      val gp = GaussianProcess.fit(k, xs.toSeq, ys.toSeq, h)
      val ref = ReferenceGp.fit(k, xs, ys, h)
      assert(bits(gp.logMarginalLikelihood) == bits(ref.logMarginalLikelihood), s"kernel $k d=$d n=$n")
      for (m <- Seq(1, 63, 64, 65, 416)) {
        val pool = Array.fill(m)(Array.fill(d)(rng.nextDouble()))
        val (mu, sd) = predictBatch(gp, pool)
        pool.indices.foreach { c =>
          val (refMu, refSd) = ref.predict(pool(c))
          val (oneMu, oneSd) = predict(gp, pool(c))
          assert(bits(mu(c)) == bits(refMu) && bits(sd(c)) == bits(refSd), s"kernel $k d=$d n=$n m=$m candidate $c")
          assert(bits(oneMu) == bits(refMu) && bits(oneSd) == bits(refSd))
        }
      }
    }
  }

  test("predictBatch stays exact on a fit that needed jitter escalation") {
    // 40 near-duplicate points under a huge signal variance: the first
    // Cholesky attempts fail and the fit escalates the diagonal jitter
    val rng = new Random(13)
    val xs = Array.fill(40)(Array(0.5 + 1e-6 * rng.nextDouble()))
    val ys = xs.map(x => x(0) + 1e-3 * rng.nextGaussian())
    val h = Array(8.0, math.log(0.3), -30.0)
    val gp = GaussianProcess.fit(m52, xs.toSeq, ys.toSeq, h)
    val ref = ReferenceGp.fit(m52, xs, ys, h)
    assert(ref.jitterEscalations > 0)
    val pool = Array.fill(7)(Array(rng.nextDouble()))
    val (mu, sd) = predictBatch(gp, pool)
    pool.indices.foreach(c => assert((mu(c), sd(c)) == ref.predict(pool(c))))
  }


  test("GP interpolates training points with tiny noise") {
    val xs = Seq(Array(0.1), Array(0.4), Array(0.7), Array(0.95))
    val ys = xs.map(x => math.sin(x(0) * 6))
    val h = Array(0.0, math.log(0.3), math.log(1e-3))
    val gp = GaussianProcess.fit(m52, xs, ys, h)
    xs.zip(ys).foreach { case (x, y) =>
      val (mu, sd) = predict(gp, x)
      assert(math.abs(mu - y) < 1e-2, s"x=${x(0)} mu=$mu y=$y")
      assert(sd < 0.1)
    }
  }

  test("GP predictive uncertainty grows away from data") {
    val xs = Seq(Array(0.4), Array(0.5), Array(0.6))
    val ys = Seq(1.0, 1.2, 0.9)
    val gp = GaussianProcess.fit(m52, xs, ys, Array(0.0, math.log(0.1), math.log(0.01)))
    val (_, sdNear) = predict(gp, Array(0.5))
    val (_, sdFar) = predict(gp, Array(0.0))
    assert(sdFar > sdNear * 2)
  }

  test("GP fits a sine with low out-of-sample error") {
    val rng = new Random(5)
    val xs = (0 until 25).map(_ => Array(rng.nextDouble()))
    val ys = xs.map(x => math.sin(x(0) * 2 * math.Pi))
    val gp = GaussianProcess.fit(m52, xs, ys, Array(0.0, math.log(0.2), math.log(0.05)))
    val err = (0 until 50).map { i =>
      val x = i / 49.0
      val (mu, _) = predict(gp, Array(x))
      math.abs(mu - math.sin(x * 2 * math.Pi))
    }.max
    assert(err < 0.25, s"max err $err")
  }

  test("GP handles constant targets (zero variance) without NaN") {
    val xs = Seq(Array(0.1), Array(0.5), Array(0.9))
    val gp = GaussianProcess.fit(m52, xs, Seq(5.0, 5.0, 5.0),
      GaussianProcess.defaultLogHypers(m52, 1))
    val (mu, sd) = predict(gp, Array(0.3))
    assert(!mu.isNaN && !sd.isNaN)
    assert(math.abs(mu - 5.0) < 0.5)
  }

  test("logMarginalLikelihood prefers the true lengthscale over absurd ones") {
    val rng = new Random(6)
    val xs = (0 until 30).map(_ => Array(rng.nextDouble()))
    val ys = xs.map(x => math.sin(x(0) * 2 * math.Pi) + rng.nextGaussian() * 0.05)
    def lml(logL: Double) =
      GaussianProcess.fit(m52, xs, ys, Array(0.0, logL, math.log(0.05))).logMarginalLikelihood
    assert(lml(math.log(0.2)) > lml(math.log(1e-3)))
    assert(lml(math.log(0.2)) > lml(math.log(100.0)))
  }

  test("GP fit and predictBatch reject points of another dimension") {
    val h = GaussianProcess.defaultLogHypers(m52, 2)
    intercept[IllegalArgumentException] {
      GaussianProcess.fit(m52, Seq(Array(0.1, 0.2), Array(0.5), Array(0.9, 0.3)), Seq(1.0, 2.0, 3.0), h)
    }
    intercept[IllegalArgumentException] {
      GaussianProcess.fit(m52, Seq(Array(0.1, 0.2), Array(0.5, 0.1, 0.7)), Seq(1.0, 2.0), h)
    }
    val gp = GaussianProcess.fit(m52, Seq(Array(0.1, 0.2), Array(0.9, 0.3)), Seq(1.0, 2.0), h)
    intercept[IllegalArgumentException] { predictBatch(gp, Array(Array(0.5, 0.5), Array(0.5))) }
    intercept[IllegalArgumentException] { predictBatch(gp, Array(Array(0.5, 0.5, 0.5))) }
    intercept[IllegalArgumentException] { predict(gp, Array(0.5)) }
  }

  test("GP fit validates hyperparameter count") {
    intercept[IllegalArgumentException] {
      GaussianProcess.fit(m52, Seq(Array(0.5)), Seq(1.0), Array(0.0))
    }
  }

  // --- EI + MCMC ---------------------------------------------------------------

  test("EI is non-negative and higher at promising points") {
    val xs = Seq(Array(0.2), Array(0.5), Array(0.8))
    val ys = Seq(5.0, 3.0, 4.0) // minimum at 0.5
    val model = EiMcmc.fitMarginalized(m52, xs, ys, new Random(7), nSamples = 3, nBurn = 5)
    val best = ys.min
    val eiAtKnownBad = model.ei(Array(0.2), best)
    val eiNearMin = model.ei(Array(0.55), best)
    assert(eiAtKnownBad >= 0.0 && eiNearMin >= 0.0)
    assert(eiNearMin > eiAtKnownBad * 0.5) // promising region scores at least comparably
  }

  test("marginalized predict blends GP samples without NaN") {
    val rng = new Random(8)
    val xs = (0 until 12).map(_ => Array(rng.nextDouble(), rng.nextDouble()))
    val ys = xs.map(x => x(0) * 2 + x(1))
    val model = EiMcmc.fitMarginalized(m52, xs, ys, rng, nSamples = 4, nBurn = 8)
    val (mu, sd) = model.predict(Array(0.5, 0.5))
    assert(!mu.isNaN && !sd.isNaN && sd >= 0)
    assert(model.gps.size == 4)
  }

  test("the prefetching MH chain draws the one-step chain's GPs, repeats and RNG state on 1 and 4 workers") {
    // (name, n, d, nSamples, nBurn, thin): the LOCAT QCSA, LOCAT RQA and
    // BoSearch shapes, windows either side of the prefetch size rule, an
    // even (14) and an odd (17) step count, and chains of no draw or no step
    val shapes = Seq(("locat qcsa", 16, 39, 3, 8, 3), ("locat rqa", 80, 5, 4, 10, 3), ("bosearch", 80, 38, 3, 6, 2),
      ("n 31", 31, 5, 3, 8, 3), ("n 32", 32, 5, 3, 8, 3), ("14 steps", 40, 5, 3, 5, 3), ("17 steps", 40, 5, 3, 8, 3),
      ("burn-in only", 40, 5, 0, 3, 3), ("no steps", 40, 5, 0, 0, 3))
    var repeats, moves = 0
    shapes.zipWithIndex.foreach { case ((k, n, d, nSamples, nBurn, thin), c) =>
      val data = new Random(70 + c)
      val xs = (0 until n).map(_ => Array.fill(d)(data.nextDouble()))
      val ys = xs.map(x => math.log(10.0 + 50.0 * (x(0) - 0.3) * (x(0) - 0.3) + 20.0 * x(1) * x(2)) +
        0.05 * data.nextGaussian())
      val refRng = Rng(80 + c)
      val want = ReferenceChain.fit(m52, xs, ys, refRng, nSamples, nBurn, thin)
      val wantNext = refRng.nextLong()
      for (threads <- Seq(1, 4)) {
        val rng = Rng(80 + c)
        val got = onPool(threads)(EiMcmc.fitMarginalized(m52, xs, ys, rng, nSamples, nBurn, thin)).gps
        assert(got.size == want.size, s"$k on $threads workers")
        got.indices.foreach { i =>
          assert(got(i).logHypers.map(bits).toSeq == want(i).logHypers.map(bits).toSeq,
            s"$k on $threads workers: draw $i")
          got.indices.foreach(j => assert((got(i) eq got(j)) == (want(i) eq want(j)),
            s"$k on $threads workers: draws $i and $j"))
        }
        assert(rng.nextLong() == wantNext, s"$k on $threads workers leaves the RNG elsewhere")
      }
      repeats += want.indices.count(i => i > 0 && (want(i) eq want(i - 1)))
      moves += want.indices.count(i => i > 0 && !(want(i) eq want(i - 1)))
    }
    assert(repeats > 0 && moves > 0, "the chains should both repeat and move between draws")
  }

  test("the MH chain's start fit throws on a training row with a NaN coordinate, either side of the size rule") {
    for (n <- Seq(16, 40); threads <- Seq(1, 4)) {
      val data = new Random(n)
      val xs = (0 until n).map(_ => Array.fill(5)(data.nextDouble()))
      xs(n / 2)(3) = Double.NaN
      val ys = xs.map(x => x(0) + x(1))
      onPool(threads)(intercept[IllegalStateException](EiMcmc.fitMarginalized(m52, xs, ys, Rng(n), 3, 8, 3)))
    }
  }

  test("eiBatch and the mixture predictBatch equal per-point EI and prediction exactly") {
    val rng = new Random(14)
    val xs = (0 until 30).map(_ => Array.fill(4)(rng.nextDouble()))
    val ys = xs.map(x => x(0) * x(0) + math.sin(4 * x(1)) + 0.05 * rng.nextGaussian())
    val model = EiMcmc.fitMarginalized(m52, xs, ys, rng, nSamples = 4, nBurn = 8)
    val best = ys.min
    val pool = Array.fill(416)(Array.fill(4)(rng.nextDouble()))
    val eis = model.eiBatch(pool, best)
    val (mu, sd) = model.predictBatch(pool)
    pool.indices.foreach { c =>
      assert(eis(c) == ReferenceGp.ei(model.gps, pool(c), best))
      assert(eis(c) == model.ei(pool(c), best))
      val ms = model.gps.map(gp => ReferenceGp.of(gp).predict(pool(c)))
      val refMu = ms.map(_._1).sum / ms.size
      val second = ms.map { case (m, s) => s * s + m * m }.sum / ms.size
      assert((mu(c), sd(c)) == ((refMu, math.sqrt(math.max(second - refMu * refMu, 1e-12)))))
      assert(model.predict(pool(c)) == ((mu(c), sd(c))))
    }
    val (i, e) = model.maxEi(pool, best)
    assert(e == eis.max && i == eis.indexOf(eis.max))

    // Draws that repeat one fitted GP (MH rejected every move between them),
    // pools on both sides of the 64-candidate block, scored on one worker
    // and on four: the same bits as the reference, draw by draw
    val g1 = GaussianProcess.fit(m52, xs, ys, Array(0.1, math.log(0.4), math.log(0.05)))
    val g2 = GaussianProcess.fit(m52, xs, ys, Array(-0.2, math.log(0.2), math.log(0.1)))
    val repeated = EiMcmc.Marginalized(Seq(g1, g1, g2, g1))
    val (ref1, ref2) = (ReferenceGp.of(g1), ReferenceGp.of(g2))
    for (m <- Seq(1, 63, 64, 65, 416)) {
      val pool = Array.fill(m)(Array.fill(4)(rng.nextDouble()))
      val refEi = pool.map(ReferenceGp.ei(repeated.gps, _, best))
      val refMoments = pool.map { x =>
        val ms = Seq(ref1, ref1, ref2, ref1).map(_.predict(x))
        val mu = ms.map(_._1).sum / ms.size
        val second = ms.map { case (m, s) => s * s + m * m }.sum / ms.size
        (mu, math.sqrt(math.max(second - mu * mu, 1e-12)))
      }
      for (threads <- Seq(1, 4)) {
        val (eis, (mu, sd), (i, e)) =
          onPool(threads)((repeated.eiBatch(pool, best), repeated.predictBatch(pool), repeated.maxEi(pool, best)))
        pool.indices.foreach { c =>
          assert(bits(eis(c)) == bits(refEi(c)), s"m=$m threads=$threads candidate $c")
          assert(bits(mu(c)) == bits(refMoments(c)._1) && bits(sd(c)) == bits(refMoments(c)._2),
            s"m=$m threads=$threads candidate $c")
        }
        assert(i == refEi.indexOf(refEi.max) && bits(e) == bits(refEi.max))
      }
    }
  }

  test("maxEi picks the reference's first maximal candidate in a pool with duplicates") {
    val rng = new Random(15)
    val d = 5
    val xs = (0 until 40).map(_ => Array.fill(d)(rng.nextDouble()))
    val ys = xs.map(x => (x(0) - 0.4) * (x(0) - 0.4) + x(1) * x(2) + 0.05 * rng.nextGaussian())
    val model = EiMcmc.fitMarginalized(GpKernel.Matern52(ard = true), xs, ys, rng, nSamples = 4, nBurn = 8)
    val best = ys.min
    // each candidate three times (itself and two copies), shuffled across block boundaries
    val base = Array.fill(100)(Array.fill(d)(rng.nextDouble()))
    val pool = rng.shuffle((base ++ base.map(_.clone()) ++ base.map(_.clone())).toSeq).toArray
    val refEi = pool.map(ReferenceGp.ei(model.gps, _, best))
    var refI = 0
    pool.indices.foreach(c => if (refEi(c) > refEi(refI)) refI = c)
    assert(refEi.count(_ == refEi(refI)) >= 3)
    val (i, e) = model.maxEi(pool, best)
    assert(i == refI && bits(e) == bits(refEi(refI)))
  }

  test("candidatePool draws the same bits, in the same order, as the generators it replaced") {
    val clamp = (v: Double) => math.min(1.0, math.max(0.0, v))
    // the three generators as they were written before candidatePool existed
    def locatQcsa(rng: Random, d: Int, inc: Array[Double]): Seq[Array[Double]] =
      (0 until 192).map(_ => Array.fill(d)(rng.nextDouble())) ++
        (0 until 48).map(_ => inc.map(v => clamp(v + rng.nextGaussian() * 0.08)))
    def locatRqa(rng: Random, d: Int, inc: Array[Double]): Seq[Array[Double]] =
      (0 until 320).map(_ => Array.fill(d)(rng.nextDouble())) ++
        (0 until 96).map(j => inc.map(v => clamp(v + rng.nextGaussian() * (if (j % 2 == 0) 0.08 else 0.025))))
    def boSearch(rng: Random, d: Int, inc: Array[Double]): Seq[Array[Double]] =
      Array.tabulate(160) { tries =>
        if (tries < 120) Array.fill(d)(rng.nextDouble())
        else inc.map(v => clamp(v + rng.nextGaussian() * 0.08))
      }.toSeq
    val d = 7
    val inc = Array(0.0, 1.0, 0.5, 0.02, 0.98, 0.3, 0.7)
    val cases = Seq[(Random => Seq[Array[Double]], Random => Array[Array[Double]])](
      (locatQcsa(_, d, inc), EiMcmc.candidatePool(_, d, 192, Some(inc), 48, Seq(0.08))),
      (locatRqa(_, d, inc), EiMcmc.candidatePool(_, d, 320, Some(inc), 96, Seq(0.08, 0.025))),
      (boSearch(_, d, inc), EiMcmc.candidatePool(_, d, 120, Some(inc), 40, Seq(0.08))))
    cases.zipWithIndex.foreach { case ((old, pool), k) =>
      val (rOld, rNew) = (new Random(30 + k), new Random(30 + k))
      val (want, got) = (old(rOld), pool(rNew))
      assert(got.length == want.length)
      want.indices.foreach(c => assert(got(c).map(bits).toSeq == want(c).map(bits).toSeq, s"case $k candidate $c"))
      assert(rNew.nextLong() == rOld.nextLong(), s"case $k leaves the RNG elsewhere")
    }
  }

  test("propose returns the same bits and RNG state as the two BO steps it replaced") {
    // LOCAT's step as written before the shared one, fitting as Dagp.fit did:
    // samples are (features, datasize, seconds), units(i) is sample i's unit
    def locatStep(rng: Random, samples: Seq[(Array[Double], Double, Double)], units: Seq[Option[Array[Double]]],
                  nMcmc: Int, nBurn: Int, dim: Int, features: Array[Double] => Array[Double], ds: Double,
                  nRandom: Int, nLocal: Int, sigmas: Seq[Double]): (Array[Double], Double) = {
      val xs = samples.map { case (f, d, _) => Dagp.inputVec(f, d) }
      val ys = samples.map(s => math.log(s._3))
      val model = EiMcmc.fitMarginalized(m52, xs, ys, rng, nSamples = nMcmc, nBurn = nBurn)
      val best = ys.min
      val pool = EiMcmc.candidatePool(rng, dim, nRandom, units(ys.indexOf(best)), nLocal, sigmas)
      val (i, ei) = model.maxEi(pool.map(u => Dagp.inputVec(features(u), ds)), best)
      (pool(i), ei)
    }
    // BoSearch's loop body as written before the shared step, on the
    // windowed units xs and their log seconds ys
    def boStep(rng: Random, xs: Seq[Array[Double]], ys: Seq[Double], dim: Int,
               filter: Array[Double] => Boolean): (Array[Double], Double) = {
      val model = EiMcmc.fitMarginalized(m52, xs, ys, rng, nSamples = 3, nBurn = 6, thin = 2)
      val best = ys.min
      val pool = EiMcmc.candidatePool(rng, dim, 120, Some(xs(ys.indexOf(best))), 40, Seq(0.08)).filter(filter)
      val (bestI, bestEi) = model.maxEi(pool, best)
      if (bestEi > Double.NegativeInfinity) (pool(bestI), bestEi) else (Array.fill(dim)(rng.nextDouble()), bestEi)
    }
    def seconds(u: Array[Double]): Double =
      10.0 + 50.0 * (u(0) - 0.3) * (u(0) - 0.3) + 20.0 * u(1) * u(2) + u.sum
    val d = 5
    val ds = 300.0
    val rng = new Random(33)
    val units = Vector.fill(90)(Array.fill(d)(rng.nextDouble()))
    val kpca = (u: Array[Double]) => Array(u(0) * u(1), u(2) + u(3), math.sin(3 * u(4))) // a stand-in feature map
    def same(k: String, got: ((Array[Double], Double), Random), want: ((Array[Double], Double), Random)): Unit = {
      val (((gu, ge), rGot), ((wu, we), rWant)) = (got, want)
      assert(gu.map(bits).toSeq == wu.map(bits).toSeq && bits(ge) == bits(we), s"$k: unit or EI differs")
      assert(rGot.nextLong() == rWant.nextLong(), s"$k leaves the RNG elsewhere")
    }
    def run[T](seed: Long)(step: Random => T): (T, Random) = { val r = new Random(seed); (step(r), r) }

    // LOCAT: the QCSA phase (every sample has its unit), the RQA phase past
    // the window (its first 30 samples, the seeded QCSA runs, have none) and
    // the RQA phase's first step (no sample has a unit)
    val locatCases = Seq[(String, Int, Int => Option[Array[Double]], Array[Double] => Array[Double], Int, Int, Int,
                          Int, Seq[Double])](
      ("qcsa", 12, i => Some(units(i)), identity, 3, 8, 192, 48, Seq(0.08)),
      ("rqa", 90, i => if (i < 30) None else Some(units(i)), kpca, 4, 10, 320, 96, Seq(0.08, 0.025)),
      ("rqa-seeded", 30, _ => None, kpca, 4, 10, 320, 96, Seq(0.08, 0.025)))
    locatCases.zipWithIndex.foreach { case ((k, n, unitOf, features, nMcmc, nBurn, nRandom, nLocal, sigmas), c) =>
      val samples = (0 until n).map(i => (features(units(i)), ds, seconds(units(i))))
      val window = samples.indices.takeRight(80)
      val want = run(40 + c)(locatStep(_, window.map(samples), window.map(unitOf), nMcmc, nBurn, d, features, ds,
        nRandom, nLocal, sigmas))
      val obs = samples.indices.map(i => EiMcmc.Observation(Dagp.inputVec(samples(i)._1, ds), samples(i)._3, unitOf(i)))
      val got = run(40 + c)(EiMcmc.propose(obs, _, nMcmc, nBurn, 3, d, nRandom, nLocal, sigmas,
        u => Dagp.inputVec(features(u), ds)))
      same(s"LOCAT $k", got, want)
    }

    // BoSearch: no filter, GBO-RL-like filter, and a filter that rejects every candidate
    val boCases = Seq[(String, Int, Array[Double] => Boolean)](
      ("unfiltered", 20, _ => true), ("filtered", 90, u => u(0) + u(1) < 1.0), ("all rejected", 20, _ => false))
    boCases.zipWithIndex.foreach { case ((k, n, accept), c) =>
      val window = units.take(n).takeRight(80)
      val want = run(50 + c)(boStep(_, window, window.map(u => math.log(seconds(u))), d, accept))
      val obs = units.take(n).map(u => EiMcmc.Observation(u, seconds(u), Some(u)))
      val got = run(50 + c)(EiMcmc.propose(obs, _, 3, 6, 2, d, 120, 40, Seq(0.08), identity, accept))
      same(s"BoSearch $k", got, want)
      if (k == "all rejected") {
        assert(got._1._2 == Double.NegativeInfinity)
        assert(got._1._1.length == d && got._1._1.forall(v => v >= 0.0 && v < 1.0))
      }
    }

    // A LOCAT RQA step and a BoSearch step with a rejecting filter, their
    // pools scored on one worker and on four
    val rqaWindow = (10 until 90).map(units)
    val rqaObs = (0 until 90).map(i => EiMcmc.Observation(Dagp.inputVec(kpca(units(i)), ds), seconds(units(i)),
      Some(units(i))))
    val boObs = units.map(u => EiMcmc.Observation(u, seconds(u), Some(u)))
    val accept = (u: Array[Double]) => u(0) + u(1) < 1.0
    for (threads <- Seq(1, 4)) {
      val locatWant = run(60)(locatStep(_, rqaWindow.map(u => (kpca(u), ds, seconds(u))), rqaWindow.map(Some(_)), 4, 10,
        d, kpca, ds, 320, 96, Seq(0.08, 0.025)))
      val locatGot = onPool(threads)(run(60)(EiMcmc.propose(rqaObs, _, 4, 10, 3, d, 320, 96, Seq(0.08, 0.025),
        u => Dagp.inputVec(kpca(u), ds))))
      same(s"LOCAT rqa on $threads workers", locatGot, locatWant)
      val boWant = run(61)(boStep(_, rqaWindow, rqaWindow.map(u => math.log(seconds(u))), d, accept))
      val boGot = onPool(threads)(run(61)(EiMcmc.propose(boObs, _, 3, 6, 2, d, 120, 40, Seq(0.08), identity, accept)))
      same(s"BoSearch filtered on $threads workers", boGot, boWant)
    }
  }

  test("candidatePool without an incumbent draws only the uniform points") {
    val pool = EiMcmc.candidatePool(new Random(31), 3, 25, None, 40, Seq(0.08))
    assert(pool.length == 25)
    assert(pool.forall(u => u.length == 3 && u.forall(v => v >= 0.0 && v < 1.0)))
  }

  test("candidatePool + maxEi return a point in the unit cube with non-negative EI") {
    val rng = new Random(9)
    val xs = (0 until 10).map(_ => Array(rng.nextDouble(), rng.nextDouble()))
    val ys = xs.map(x => (x(0) - 0.3) * (x(0) - 0.3) + x(1))
    val model = EiMcmc.fitMarginalized(m52, xs, ys, rng, nSamples = 3, nBurn = 5)
    val pool = EiMcmc.candidatePool(rng, 2, 256, Some(xs(ys.indexOf(ys.min))), 64, Seq(0.08))
    val (i, ei) = model.maxEi(pool, ys.min)
    assert(pool(i).forall(v => v >= 0.0 && v <= 1.0))
    assert(ei >= 0.0)
  }

  test("BO loop with EI-MCMC converges on a 2-d quadratic") {
    val rng = new Random(10)
    def f(x: Array[Double]): Double = (x(0) - 0.7) * (x(0) - 0.7) + (x(1) - 0.3) * (x(1) - 0.3)
    // the shared step models log seconds, so exp(f) puts f on its scale
    def observe(x: Array[Double]) = EiMcmc.Observation(x, math.exp(f(x)), Some(x))
    var obs = Lhs.sample(3, 2, rng).map(observe).toVector
    for (_ <- 0 until 15) {
      val (cand, _) = EiMcmc.propose(obs, rng, nSamples = 3, nBurn = 6, thin = 3, dim = 2,
        nRandom = 256, nLocal = 64, sigmas = Seq(0.08), input = identity)
      obs :+= observe(cand)
    }
    val ys = obs.map(o => f(o.x))
    assert(ys.min < 0.02, s"BO best ${ys.min}") // random search would rarely get here in 18 evals
  }
}
