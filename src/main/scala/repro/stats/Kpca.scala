package repro.stats

import repro.linalg.Mat

/** A KPCA kernel. The paper compares gaussian, perceptron and polynomial
  * kernels (Fig 6) and picks gaussian; the other two are figure-only code in
  * the test sources (`ComparisonKernels.scala`).
  */
trait KpcaKernel {
  def apply(x: Array[Double], y: Array[Double]): Double
}

object KpcaKernel {
  import Mat.sqDist

  /** RBF kernel exp(-||x-y||² / 2σ²). */
  final case class Gaussian(sigma: Double) extends KpcaKernel {
    require(sigma > 0, "gaussian kernel needs sigma > 0")
    def apply(x: Array[Double], y: Array[Double]): Double = math.exp(-sqDist(x, y) / (2.0 * sigma * sigma))
  }

  /** Median-heuristic bandwidth for the gaussian kernel. */
  def medianSigma(xs: Seq[Array[Double]]): Double = {
    val ds = for {
      i <- xs.indices; j <- (i + 1) until xs.size
    } yield math.sqrt(sqDist(xs(i), xs(j)))
    val pos = ds.filter(_ > 0).sorted
    if (pos.isEmpty) 1.0 else pos(pos.size / 2)
  }
}

/** Kernel Principal Component Analysis — the CPE half of IICP (paper §3.3.2).
  *
  * Fits on N config samples, double-centers the kernel matrix, and keeps the
  * top components whose eigenvalues cover `varianceToKeep` of the spectrum
  * (capped at `maxComponents`). `transform` maps a new config vector into the
  * extracted feature space — these are the "new parameters" the paper feeds
  * to DAGP.
  */
final class Kpca private (
    val kernel: KpcaKernel,
    train: Array[Array[Double]],
    alphas: Mat,            // n x k, columns are λ-normalized eigenvectors
    rowMeans: Array[Double],
    totalMean: Double,
) {
  /** Number of extracted components. */
  def nComponents: Int = alphas.cols

  /** Project a point into the extracted component space. */
  def transform(x: Array[Double]): Array[Double] = {
    val n = train.length
    val kx = new Array[Double](n)
    var i = 0
    while (i < n) { kx(i) = kernel(x, train(i)); i += 1 }
    val kxMean = kx.sum / n
    // center against training distribution: k̃(x,i) = k(x,i) − mean_j k(x,j) − mean_j k(i,j) + mean_ij k
    val centered = new Array[Double](n)
    i = 0
    while (i < n) { centered(i) = kx(i) - kxMean - rowMeans(i) + totalMean; i += 1 }
    val out = new Array[Double](alphas.cols)
    var c = 0
    while (c < alphas.cols) {
      var s = 0.0; var r = 0
      while (r < n) { s += alphas(r, c) * centered(r); r += 1 }
      out(c) = s; c += 1
    }
    out
  }
}

object Kpca {
  /** Fit KPCA on `xs` (each an equal-length feature vector). */
  def fit(xs: Seq[Array[Double]], kernel: KpcaKernel, varianceToKeep: Double, maxComponents: Int): Kpca = {
    require(xs.size >= 3, "kpca needs at least 3 samples")
    val n = xs.size
    val train = xs.toArray
    val k = Mat.symmetric(train)(kernel.apply)
    // double-center: K' = K − 1ₙK − K1ₙ + 1ₙK1ₙ
    val rowMeans = Array.tabulate(n)(i => (0 until n).map(j => k(i, j)).sum / n)
    val totalMean = rowMeans.sum / n
    val kc = Mat.zeros(n, n)
    for (i <- 0 until n; j <- 0 until n)
      kc(i, j) = k(i, j) - rowMeans(i) - rowMeans(j) + totalMean

    val (vals, vecs) = Mat.eigSym(kc)
    val tot = vals.filter(_ > 1e-10).sum
    val keep = scala.collection.mutable.ArrayBuffer.empty[Int]
    var acc = 0.0
    var i = 0
    while (i < n && keep.size < maxComponents && (acc < varianceToKeep * tot || keep.isEmpty)) {
      if (vals(i) > 1e-10) { keep += i; acc += vals(i) }
      i += 1
    }
    val kKeep = keep.size
    val alphas = Mat.zeros(n, kKeep)
    keep.zipWithIndex.foreach { case (col, c) =>
      val norm = math.sqrt(vals(col)) // scale so projections = eigvec·k̃ / sqrt(λ)
      var r = 0
      while (r < n) { alphas(r, c) = vecs(r, col) / norm; r += 1 }
    }
    new Kpca(kernel, train, alphas, rowMeans, totalMean)
  }
}
