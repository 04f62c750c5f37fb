package repro.linalg

import org.apache.commons.math3.linear.{Array2DRowRealMatrix, EigenDecomposition}

/** Minimal dense linear algebra for the GP / KPCA substrates.
  *
  * Row-major, mutable `Array[Double]` backing. Sizes here are small
  * (kernel matrices of at most a few hundred samples), so clarity wins
  * over blocking/cache tricks, except in `cholesky`, which every GP fit runs.
  */
final class Mat(val rows: Int, val cols: Int, val data: Array[Double]) {
  require(data.length == rows * cols, s"Mat($rows x $cols) needs ${rows * cols} values, got ${data.length}")

  def apply(i: Int, j: Int): Double = data(i * cols + j)
  def update(i: Int, j: Int, v: Double): Unit = data(i * cols + j) = v

  def copy: Mat = new Mat(rows, cols, data.clone())
}

object Mat {
  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Double](rows * cols))

  def fromRows(rows: Seq[Array[Double]]): Mat = {
    require(rows.nonEmpty, "fromRows needs at least one row")
    val c = rows.head.length
    require(rows.forall(_.length == c), "ragged rows")
    new Mat(rows.length, c, rows.flatten.toArray)
  }

  /** Squared Euclidean distance Σ (x(t) − y(t))², summed over t ascending
    * from 0.0.
    */
  def sqDist(x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0; var t = 0
    while (t < x.length) { val d = x(t) - y(t); s += d * d; t += 1 }
    s
  }

  /** The symmetric matrix K(i, j) = k(xs(i), xs(j)): each entry of the upper
    * triangle (j ≥ i) is computed once and mirrored below the diagonal.
    */
  def symmetric(xs: Array[Array[Double]])(k: (Array[Double], Array[Double]) => Double): Mat = {
    val m = zeros(xs.length, xs.length)
    for (i <- xs.indices; j <- i until xs.length) { val v = k(xs(i), xs(j)); m(i, j) = v; m(j, i) = v }
    m
  }

  /** Cholesky factorization A = L·Lᵀ of a symmetric positive-definite matrix.
    *
    * Returns the lower-triangular L. Throws IllegalArgumentException when A is
    * not positive definite (callers add jitter and retry).
    *
    * Left-looking by columns (Golub & Van Loan §4.2): column j first sums
    * s(i) = Σ_{k<j} L(i,k)·L(j,k) for every i ≥ j, k ascending from 0.0, down
    * column arrays of L. Each entry is rounded exactly as in the row-by-row
    * order, and the inner loop indexes all its arrays by i alone, so C2
    * vectorizes it.
    */
  def cholesky(a: Mat): Mat = {
    require(a.rows == a.cols, "cholesky needs a square matrix")
    val n = a.rows
    val cols = new Array[Array[Double]](n) // column j of L holds rows i ≥ j
    val s = new Array[Double](n)
    var j = 0
    while (j < n) {
      java.util.Arrays.fill(s, j, n, 0.0)
      var k = 0
      while (k < j) {
        val ck = cols(k); val ljk = ck(j)
        var i = j
        while (i < n) { s(i) += ck(i) * ljk; i += 1 }
        k += 1
      }
      val d = a(j, j) - s(j)
      if (d <= 0.0 || d.isNaN) throw new IllegalArgumentException(s"matrix not positive definite at pivot $j (d=$d)")
      val ljj = math.sqrt(d)
      val cj = new Array[Double](n)
      cj(j) = ljj
      var i = j + 1
      while (i < n) { cj(i) = (a(i, j) - s(i)) / ljj; i += 1 }
      cols(j) = cj
      j += 1
    }
    val l = zeros(n, n)
    var i = 0
    while (i < n) {
      j = 0
      while (j <= i) { l(i, j) = cols(j)(i); j += 1 }
      i += 1
    }
    l
  }

  /** Solve L·x = b for lower-triangular L (forward substitution). */
  def solveLower(l: Mat, b: Array[Double]): Array[Double] = {
    val n = l.rows
    val x = new Array[Double](n)
    var i = 0
    while (i < n) {
      var s = b(i); var j = 0
      while (j < i) { s -= l(i, j) * x(j); j += 1 }
      x(i) = s / l(i, i); i += 1
    }
    x
  }

  /** Solve Lᵀ·x = b for lower-triangular L (backward substitution). */
  def solveUpperFromLower(l: Mat, b: Array[Double]): Array[Double] = {
    val n = l.rows
    val x = new Array[Double](n)
    var i = n - 1
    while (i >= 0) {
      var s = b(i); var j = i + 1
      while (j < n) { s -= l(j, i) * x(j); j += 1 }
      x(i) = s / l(i, i); i -= 1
    }
    x
  }

  /** Solve A·x = b given the Cholesky factor L of A. */
  def choleskySolve(l: Mat, b: Array[Double]): Array[Double] =
    solveUpperFromLower(l, solveLower(l, b))

  /** Eigendecomposition of a symmetric matrix (commons-math3's
    * `EigenDecomposition`: Householder tridiagonalization, then implicit QL).
    *
    * Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue;
    * eigenvector k is column k of the returned matrix.
    */
  def eigSym(a: Mat): (Array[Double], Mat) = {
    require(a.rows == a.cols, "eigSym needs a square matrix")
    val n = a.rows
    val ed = new EigenDecomposition(new Array2DRowRealMatrix(Array.tabulate(n, n)((i, j) => a(i, j)), false))
    val vals = ed.getRealEigenvalues
    val order = vals.indices.sortBy(i => -vals(i))
    val v = ed.getV
    (order.map(vals).toArray, new Mat(n, n, Array.tabulate(n * n)(k => v.getEntry(k / n, order(k % n)))))
  }
}
