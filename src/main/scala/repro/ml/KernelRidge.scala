package repro.ml

import repro.linalg.Mat

/** RBF kernel ridge regression — the "SVR" comparator in Fig 16.
  *
  * Substitution (documented in DESIGN.md): ε-SVR needs an SMO solver; kernel
  * ridge uses the same RBF hypothesis space with a squared loss and a closed
  * form, which preserves the model-accuracy comparison the figure makes.
  */
final class KernelRidge private (train: Array[Array[Double]], dual: Array[Double], gamma: Double, yMean: Double) {
  def predict(x: Array[Double]): Double = {
    var s = yMean; var i = 0
    while (i < train.length) { s += dual(i) * KernelRidge.rbf(gamma)(x, train(i)); i += 1 }
    s
  }
}

object KernelRidge {
  private def rbf(gamma: Double)(a: Array[Double], b: Array[Double]): Double = math.exp(-gamma * Mat.sqDist(a, b))

  def fit(x: Seq[Array[Double]], y: Seq[Double], gamma: Double, lambda: Double): KernelRidge = {
    require(x.nonEmpty && x.size == y.size, "kernel ridge needs equal non-empty x/y")
    val n = x.size
    val xa = x.toArray
    val yMean = y.sum / n
    val yc = y.map(_ - yMean).toArray
    val km = Mat.symmetric(xa)(rbf(gamma))
    var i = 0
    while (i < n) { km(i, i) += lambda; i += 1 }
    val l = Mat.cholesky(km)
    new KernelRidge(xa, Mat.choleskySolve(l, yc), gamma, yMean)
  }
}

/** k-nearest-neighbour regression — the "KNNAR" comparator in Fig 16. */
final class KnnRegression private (x: Array[Array[Double]], y: Array[Double], k: Int) {
  def predict(q: Array[Double]): Double = {
    val dists = x.indices.map(i => (Mat.sqDist(q, x(i)), y(i)))
    val nearest = dists.sortBy(_._1).take(k)
    nearest.map(_._2).sum / nearest.size
  }
}

object KnnRegression {
  def fit(x: Seq[Array[Double]], y: Seq[Double], k: Int): KnnRegression = {
    require(x.nonEmpty && x.size == y.size, "knn needs equal non-empty x/y")
    new KnnRegression(x.toArray, y.toArray, math.min(k, x.size))
  }
}
