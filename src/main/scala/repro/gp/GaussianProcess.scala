package repro.gp

import repro.linalg.Mat

/** Gaussian Process regression (paper eq. 8–10).
  *
  * Targets are standardized internally (zero mean, unit variance) so the
  * zero-mean GP prior is sensible regardless of the execution-time scale.
  * Hyperparameters live in log-space: `[log σf, log ℓ…]` for the kernel plus
  * `log σn` (observation noise) appended last.
  */
final class GaussianProcess private (
    val kernel: GpKernel,
    val x: Array[Array[Double]],
    val yRaw: Array[Double],
    val logHypers: Array[Double], // kernel hypers ++ [log noise]
    k: GpKernel.Prepared,
    chol: Mat,
    alpha: Array[Double],
    yMean: Double,
    yStd: Double,
) {
  private val n = x.length

  /** Predictive mean and standard deviation at `xs`, on the raw target scale. */
  def predict(xs: Array[Double]): (Double, Double) = {
    val (mu, sd) = predictBatch(Array(xs))
    (mu(0), sd(0))
  }

  /** Predictive means and standard deviations at every point of `xs`, on the
    * raw target scale (GPML Alg. 2.1). Each candidate's forward substitution
    * L·v = k* follows `Mat.solveLower`'s operation order, so its prediction
    * does not depend on the batch it is scored in.
    */
  def predictBatch(xs: Array[Array[Double]]): (Array[Double], Array[Double]) = {
    val mu = new Array[Double](xs.length)
    val sd = new Array[Double](xs.length)
    val l = chol.data
    val v = new Array[Double](n)
    var c = 0
    while (c < xs.length) {
      val xc = xs(c)
      var kAlpha = 0.0
      var kss = k(xc, xc)
      var i = 0
      while (i < n) {
        val ki = k(xc, x(i))
        kAlpha += ki * alpha(i)
        val row = i * n
        var s = ki
        var j = 0
        while (j < i) { s -= l(row + j) * v(j); j += 1 }
        s = s / l(row + i)
        v(i) = s
        kss -= s * s
        i += 1
      }
      mu(c) = kAlpha * yStd + yMean
      sd(c) = math.sqrt(math.max(kss, 1e-12)) * yStd
      c += 1
    }
    (mu, sd)
  }

  /** Log marginal likelihood of the (standardized) training data. */
  def logMarginalLikelihood: Double = {
    var quad = 0.0
    val yStdz = yRaw.map(v => (v - yMean) / yStd)
    var i = 0
    while (i < n) { quad += yStdz(i) * alpha(i); i += 1 }
    var logDet = 0.0
    i = 0
    while (i < n) { logDet += math.log(chol(i, i)); i += 1 }
    -0.5 * quad - logDet - 0.5 * n * math.log(2.0 * math.Pi)
  }
}

object GaussianProcess {
  /** Fit a GP with the given log-hyperparameters. Adds jitter on Cholesky
    * failure (up to 6 escalations) before giving up.
    */
  def fit(kernel: GpKernel, x: Seq[Array[Double]], y: Seq[Double], logHypers: Array[Double]): GaussianProcess = {
    require(x.nonEmpty && x.size == y.size, "GP needs equal non-empty x/y")
    val d = x.head.length
    require(logHypers.length == kernel.nHypers(d) + 1,
      s"expected ${kernel.nHypers(d) + 1} log-hypers (kernel + noise), got ${logHypers.length}")
    val n = x.size
    val xa = x.toArray
    val ya = y.toArray
    val yMean = ya.sum / n
    val yStd0 = math.sqrt(ya.map(v => (v - yMean) * (v - yMean)).sum / n)
    val yStd = if (yStd0 < 1e-12) 1.0 else yStd0
    val yStdz = ya.map(v => (v - yMean) / yStd)
    val noise2 = math.exp(2.0 * logHypers.last)
    val k = kernel.at(logHypers)

    val gram = Mat.zeros(n, n)
    var i = 0
    while (i < n) {
      var j = i
      while (j < n) { val v = k(xa(i), xa(j)); gram(i, j) = v; gram(j, i) = v; j += 1 }
      i += 1
    }
    var jitter = 1e-10
    var attempt = 0
    var result: GaussianProcess = null
    while (result == null) {
      val a = gram.copy
      i = 0
      while (i < n) { a(i, i) += noise2 + jitter; i += 1 }
      try {
        val l = Mat.cholesky(a)
        val alpha = Mat.choleskySolve(l, yStdz)
        result = new GaussianProcess(kernel, xa, ya, logHypers.clone(), k, l, alpha, yMean, yStd)
      } catch {
        case _: IllegalArgumentException if attempt < 6 =>
          jitter *= 100.0; attempt += 1
        case e: IllegalArgumentException =>
          throw new IllegalStateException(s"GP Cholesky failed even with jitter=$jitter", e)
      }
    }
    result
  }

  /** Sensible default log-hypers: unit signal, lengthscale 0.3 (inputs are in
    * [0,1]), noise 0.1 — the MCMC marginalization starts from here.
    */
  def defaultLogHypers(kernel: GpKernel, d: Int): Array[Double] = {
    val kh = kernel.nHypers(d)
    val h = new Array[Double](kh + 1)
    h(0) = 0.0 // log σf = 0
    var i = 1
    while (i < kh) { h(i) = math.log(0.3); i += 1 }
    h(kh) = math.log(0.1)
    h
  }
}
