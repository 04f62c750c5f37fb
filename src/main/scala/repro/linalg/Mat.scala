package repro.linalg

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

  override def toString: String =
    (0 until rows).map(i => (0 until cols).map(j => f"${this(i, j)}%.4f").mkString(" ")).mkString("\n")
}

object Mat {
  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Double](rows * cols))

  def eye(n: Int): Mat = {
    val m = zeros(n, n)
    var i = 0
    while (i < n) { m(i, i) = 1.0; i += 1 }
    m
  }

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

  /** Eigendecomposition of a symmetric matrix by the cyclic Jacobi method.
    *
    * Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue;
    * eigenvector k is column k of the returned matrix.
    */
  def jacobiEigSym(aIn: Mat): (Array[Double], Mat) = {
    require(aIn.rows == aIn.cols, "jacobiEigSym needs a square matrix")
    val n = aIn.rows
    val a = aIn.copy
    val v = eye(n)
    var sweep = 0
    var off = offDiagNorm(a)
    val tol = 1e-12 // sweep until the off-diagonal norm is below this, at most 64 times
    while (sweep < 64 && off > tol) {
      var p = 0
      while (p < n - 1) {
        var q = p + 1
        while (q < n) {
          val apq = a(p, q)
          if (math.abs(apq) > tol * 1e-3) {
            val app = a(p, p); val aqq = a(q, q)
            val theta = 0.5 * (aqq - app) / apq
            val t = math.signum(theta) / (math.abs(theta) + math.sqrt(theta * theta + 1.0))
            val c = 1.0 / math.sqrt(t * t + 1.0)
            val s = t * c
            // rotate rows/cols p,q of a
            var k = 0
            while (k < n) {
              val akp = a(k, p); val akq = a(k, q)
              a(k, p) = c * akp - s * akq
              a(k, q) = s * akp + c * akq
              k += 1
            }
            k = 0
            while (k < n) {
              val apk = a(p, k); val aqk = a(q, k)
              a(p, k) = c * apk - s * aqk
              a(q, k) = s * apk + c * aqk
              k += 1
            }
            k = 0
            while (k < n) {
              val vkp = v(k, p); val vkq = v(k, q)
              v(k, p) = c * vkp - s * vkq
              v(k, q) = s * vkp + c * vkq
              k += 1
            }
          }
          q += 1
        }
        p += 1
      }
      off = offDiagNorm(a)
      sweep += 1
    }
    val vals = Array.tabulate(n)(i => a(i, i))
    val order = vals.indices.sortBy(i => -vals(i)).toArray
    val sortedVals = order.map(vals)
    val sortedVecs = zeros(n, n)
    var j = 0
    while (j < n) {
      var i = 0
      while (i < n) { sortedVecs(i, j) = v(i, order(j)); i += 1 }
      j += 1
    }
    (sortedVals, sortedVecs)
  }

  private def offDiagNorm(a: Mat): Double = {
    var s = 0.0; var i = 0
    while (i < a.rows) {
      var j = 0
      while (j < a.cols) { if (i != j) s += a(i, j) * a(i, j); j += 1 }
      i += 1
    }
    math.sqrt(s)
  }
}
