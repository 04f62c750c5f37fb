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
    val kernel: GpKernel.Matern52,
    val x: Array[Array[Double]],
    val yRaw: Array[Double],
    val logHypers: Array[Double], // kernel hypers ++ [log noise]
    k: GpKernel.Prepared,
    chol: Mat,
    alpha: Array[Double],
    yStdz: Array[Double],
    yMean: Double,
    yStd: Double,
) {
  private val n = x.length
  private val d = x(0).length

  /** Predictive means and standard deviations of `xs(from until until)`,
    * on the raw target scale (GPML Alg. 2.1), written to the same indices
    * of `mu` and `sd`. Candidates are scored in blocks of up to `Block`,
    * candidate-major: k*, k*ᵀα and the forward substitution L·v = k*
    * advance one training row at a time for the whole block. Each candidate
    * keeps the one-candidate operation order (`Mat.solveLower`'s), so its
    * prediction does not depend on the block it is scored in. The prior
    * variance k(x, x) is σf² = k.atSqDist(0.0) for every finite candidate; a
    * non-finite one still ends in NaN through its k* row.
    */
  private[gp] def predictInto(xs: Array[Array[Double]], from: Int, until: Int,
                              mu: Array[Double], sd: Array[Double]): Unit = {
    var c = from
    while (c < until) {
      require(xs(c).length == d, s"candidate $c has ${xs(c).length} coordinates, the GP was fit on $d")
      c += 1
    }
    val bs = math.min(GaussianProcess.Block, until - from)
    // One array per coordinate (xt) and per training row (v), indexed by the
    // candidate's place in the block: every inner loop over c then indexes
    // all its arrays by c alone, the shape C2 vectorizes.
    val xt = new Array[Array[Double]](d)
    var t = 0
    while (t < d) { xt(t) = new Array[Double](bs); t += 1 }
    val v = new Array[Array[Double]](n)
    var i = 0
    while (i < n) { v(i) = new Array[Double](bs); i += 1 }
    val r2 = new Array[Double](bs)
    val s = new Array[Double](bs)
    val kAlpha = new Array[Double](bs)
    val kss = new Array[Double](bs)
    val prior = k.atSqDist(0.0)
    val l = chol.data
    var start = from
    while (start < until) {
      val mb = math.min(bs, until - start)
      c = 0
      while (c < mb) {
        val xc = xs(start + c)
        t = 0
        while (t < d) { xt(t)(c) = xc(t); t += 1 }
        kAlpha(c) = 0.0
        kss(c) = prior
        c += 1
      }
      i = 0
      while (i < n) {
        k.sqDistRow(x(i), xt, 0, mb, r2)
        val ai = alpha(i)
        c = 0
        while (c < mb) { val ki = k.atSqDist(r2(c)); kAlpha(c) += ki * ai; s(c) = ki; c += 1 }
        val row = i * n
        var j = 0
        while (j < i) {
          val lij = l(row + j); val vj = v(j)
          c = 0
          while (c < mb) { s(c) -= lij * vj(c); c += 1 }
          j += 1
        }
        val lii = l(row + i); val vi = v(i)
        c = 0
        while (c < mb) { val q = s(c) / lii; vi(c) = q; kss(c) -= q * q; c += 1 }
        i += 1
      }
      c = 0
      while (c < mb) {
        mu(start + c) = kAlpha(c) * yStd + yMean
        sd(start + c) = math.sqrt(math.max(kss(c), 1e-12)) * yStd
        c += 1
      }
      start += mb
    }
  }

  /** Log marginal likelihood of the (standardized) training data. */
  def logMarginalLikelihood: Double = {
    var quad = 0.0
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
  def fit(kernel: GpKernel.Matern52, x: Seq[Array[Double]], y: Seq[Double],
          logHypers: Array[Double]): GaussianProcess = {
    require(x.nonEmpty && x.size == y.size, "GP needs equal non-empty x/y")
    val n = x.size
    val xa = x.toArray
    val d = xa(0).length
    require(xa.forall(_.length == d), s"every training row needs the first row's $d coordinates")
    require(logHypers.length == kernel.nHypers(d) + 1,
      s"expected ${kernel.nHypers(d) + 1} log-hypers (kernel + noise), got ${logHypers.length}")
    val ya = y.toArray
    val yMean = ya.sum / n
    val yStd0 = math.sqrt(ya.map(v => (v - yMean) * (v - yMean)).sum / n)
    val yStd = if (yStd0 < 1e-12) 1.0 else yStd0
    val yStdz = ya.map(v => (v - yMean) / yStd)
    val noise2 = math.exp(2.0 * logHypers.last)
    val k = kernel.at(logHypers)

    // Upper triangle row by row from the transposed training set: row i
    // holds r2(j) for j ≥ i
    val xt = new Array[Array[Double]](d)
    var t = 0
    while (t < d) {
      val col = new Array[Double](n)
      var j = 0
      while (j < n) { col(j) = xa(j)(t); j += 1 }
      xt(t) = col
      t += 1
    }
    val gram = Mat.zeros(n, n)
    val r2 = new Array[Double](n)
    var i = 0
    while (i < n) {
      k.sqDistRow(xa(i), xt, i, n, r2)
      var j = i
      while (j < n) { val v = k.atSqDist(r2(j)); gram(i, j) = v; gram(j, i) = v; j += 1 }
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
        result = new GaussianProcess(kernel, xa, ya, logHypers.clone(), k, l, alpha, yStdz, yMean, yStd)
      } catch {
        case _: IllegalArgumentException if attempt < 6 =>
          jitter *= 100.0; attempt += 1
        case e: IllegalArgumentException =>
          throw new IllegalStateException(s"GP Cholesky failed even with jitter=$jitter", e)
      }
    }
    result
  }

  /** Candidates per scoring block of [[GaussianProcess.predictInto]]. */
  private[gp] val Block = 64

  /** Sensible default log-hypers: unit signal, lengthscale 0.3 (inputs are in
    * [0,1]), noise 0.1 — the MCMC marginalization starts from here.
    */
  def defaultLogHypers(kernel: GpKernel.Matern52, d: Int): Array[Double] = {
    val kh = kernel.nHypers(d)
    val h = new Array[Double](kh + 1)
    h(0) = 0.0 // log σf = 0
    var i = 1
    while (i < kh) { h(i) = math.log(0.3); i += 1 }
    h(kh) = math.log(0.1)
    h
  }
}
