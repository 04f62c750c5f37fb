package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** `Mat.cholesky` as it was before it went column by column: row-oriented,
  * each entry's sum over k ascending from 0.0. The factor and the failure
  * message must match it exactly; `GpSpec`'s reference GP factors with it.
  */
private[repro] object RowCholesky {
  def factor(a: Mat): Mat = {
    val n = a.rows
    val l = Mat.zeros(n, n)
    var i = 0
    while (i < n) {
      var j = 0
      while (j <= i) {
        var s = 0.0; var k = 0
        while (k < j) { s += l(i, k) * l(j, k); k += 1 }
        if (i == j) {
          val d = a(i, i) - s
          if (d <= 0.0 || d.isNaN) throw new IllegalArgumentException(s"matrix not positive definite at pivot $i (d=$d)")
          l(i, i) = math.sqrt(d)
        } else {
          l(i, j) = (a(i, j) - s) / l(j, j)
        }
        j += 1
      }
      i += 1
    }
    l
  }
}

class MatSpec extends AnyFunSuite {

  // the products, transpose, diagonal matrix and Frobenius distance the checks below need
  private def mul(a: Mat, b: Mat): Mat =
    Mat.fromRows((0 until a.rows).map(i => Array.tabulate(b.cols)(j => (0 until a.cols).map(k => a(i, k) * b(k, j)).sum)))
  private def mulVec(a: Mat, v: Array[Double]): Array[Double] =
    Array.tabulate(a.rows)(i => (0 until a.cols).map(k => a(i, k) * v(k)).sum)
  private def tr(a: Mat): Mat = Mat.fromRows((0 until a.cols).map(j => Array.tabulate(a.rows)(i => a(i, j))))
  private def diag(d: Seq[Double]): Mat = { val m = Mat.zeros(d.size, d.size); d.indices.foreach(i => m(i, i) = d(i)); m }
  private def dist(a: Mat, b: Mat): Double =
    math.sqrt(a.data.indices.map(i => (a.data(i) - b.data(i)) * (a.data(i) - b.data(i))).sum)

  private def randSpd(n: Int, rng: Random): Mat = {
    // A = B·Bᵀ + n·I is SPD
    val b = new Mat(n, n, Array.fill(n * n)(rng.nextGaussian()))
    val a = mul(b, tr(b))
    var i = 0
    while (i < n) { a(i, i) += n.toDouble; i += 1 }
    a
  }

  test("fromRows rejects ragged input") {
    intercept[IllegalArgumentException] {
      Mat.fromRows(Seq(Array(1.0, 2.0), Array(1.0)))
    }
  }

  test("cholesky reconstructs A = L·Lᵀ on random SPD matrices (20 seeds)") {
    for (seed <- 0 until 20) {
      val rng = new Random(seed)
      val n = 1 + rng.nextInt(12)
      val a = randSpd(n, rng)
      val l = Mat.cholesky(a)
      assert(dist(mul(l, tr(l)), a) < 1e-8 * n, s"seed=$seed n=$n")
    }
  }

  test("cholesky rejects non-positive-definite matrices") {
    val a = new Mat(2, 2, Array(1.0, 2.0, 2.0, 1.0)) // eigenvalues 3, -1
    intercept[IllegalArgumentException] { Mat.cholesky(a) }
  }

  test("cholesky equals the row-oriented factorization bit for bit") {
    val rng = new Random(31)
    for (n <- Seq(1, 2, 3, 4, 5, 63, 64, 65, 80, 120); _ <- 0 until 3) {
      // B·Bᵀ scaled down and a small ridge: SPD, but far from diagonal, so
      // every entry sums many terms whose order would show in the bits
      val b = new Mat(n, n, Array.fill(n * n)(rng.nextGaussian()))
      val a = mul(b, tr(b))
      a.data.indices.foreach(k => a.data(k) *= 1.0 / n)
      var i = 0
      while (i < n) { a(i, i) += 1e-3 * rng.nextDouble(); i += 1 }
      val got = Mat.cholesky(a).data.map(java.lang.Double.doubleToRawLongBits)
      val want = RowCholesky.factor(a).data.map(java.lang.Double.doubleToRawLongBits)
      assert(got.sameElements(want), s"n=$n")
    }
  }

  test("cholesky fails at the row-oriented factorization's pivot with its message") {
    val rng = new Random(32)
    for (n <- Seq(2, 5, 64, 80); p <- Seq(0, n / 2, n - 1)) {
      // SPD up to a negative diagonal entry (fails at pivot p exactly) or a
      // NaN below it (the NaN reaches the pivots of rows ≥ p)
      val negative = randSpd(n, rng)
      negative(p, p) = -1.0
      val nan = randSpd(n, rng)
      nan(p, 0) = Double.NaN
      for (a <- Seq(negative, nan)) {
        val want = intercept[IllegalArgumentException](RowCholesky.factor(a)).getMessage
        assert(intercept[IllegalArgumentException](Mat.cholesky(a)).getMessage == want, s"n=$n p=$p")
      }
    }
    val indefinite = new Mat(2, 2, Array(1.0, 2.0, 2.0, 1.0))
    assert(intercept[IllegalArgumentException](Mat.cholesky(indefinite)).getMessage ==
      "matrix not positive definite at pivot 1 (d=-3.0)")
  }

  test("choleskySolve solves A·x = b (20 seeds)") {
    for (seed <- 0 until 20) {
      val rng = new Random(100 + seed)
      val n = 1 + rng.nextInt(10)
      val a = randSpd(n, rng)
      val x = Array.fill(n)(rng.nextGaussian())
      val b = mulVec(a, x)
      val got = Mat.choleskySolve(Mat.cholesky(a), b)
      x.indices.foreach(i => assert(math.abs(got(i) - x(i)) < 1e-7, s"seed=$seed"))
    }
  }

  test("solveLower / solveUpperFromLower agree with direct multiply") {
    val rng = new Random(3)
    val a = randSpd(6, rng)
    val l = Mat.cholesky(a)
    val x = Array.fill(6)(rng.nextGaussian())
    val b = mulVec(l, x)
    val got = Mat.solveLower(l, b)
    x.indices.foreach(i => assert(math.abs(got(i) - x(i)) < 1e-9))
    val bu = mulVec(tr(l), x)
    val gotU = Mat.solveUpperFromLower(l, bu)
    x.indices.foreach(i => assert(math.abs(gotU(i) - x(i)) < 1e-9))
  }

  test("eigSym recovers known eigenvalues of a diagonal matrix") {
    val a = Mat.zeros(3, 3)
    a(0, 0) = 3.0; a(1, 1) = 1.0; a(2, 2) = 2.0
    val (vals, _) = Mat.eigSym(a)
    assert(vals.toSeq == Seq(3.0, 2.0, 1.0))
  }

  test("eigSym reconstructs random symmetric matrices (15 seeds)") {
    for (seed <- 0 until 15) {
      val rng = new Random(seed)
      val n = 2 + rng.nextInt(9)
      val b = new Mat(n, n, Array.fill(n * n)(rng.nextGaussian()))
      val bt = tr(b)
      val a = new Mat(n, n, b.data.indices.map(k => (b.data(k) + bt.data(k)) * 0.5).toArray)
      val (vals, vecs) = Mat.eigSym(a)
      assert(dist(mul(mul(vecs, diag(vals.toSeq)), tr(vecs)), a) < 1e-7 * n, s"seed=$seed n=$n")
    }
  }

  test("eigSym eigenvalues are sorted descending") {
    val (vals, _) = Mat.eigSym(randSpd(8, new Random(9)))
    assert(vals.toSeq == vals.toSeq.sorted(Ordering[Double].reverse))
  }

  test("eigSym eigenvectors are orthonormal") {
    val (_, v) = Mat.eigSym(randSpd(7, new Random(11)))
    assert(dist(mul(v, tr(v)), diag(Seq.fill(7)(1.0))) < 1e-8)
  }

  test("eigSym on double-centred gaussian kernel matrices, the shape KPCA decomposes (10 seeds)") {
    for (seed <- 0 until 10) {
      val rng = new Random(40 + seed)
      val n = 20
      val xs = Array.fill(n)(Array.fill(5)(rng.nextDouble()))
      val k = Mat.symmetric(xs)((x, y) => math.exp(-Mat.sqDist(x, y) / 2.0))
      val rowMeans = Array.tabulate(n)(i => (0 until n).map(j => k(i, j)).sum / n)
      val totalMean = rowMeans.sum / n
      val kc = Mat.zeros(n, n)
      for (i <- 0 until n; j <- 0 until n) kc(i, j) = k(i, j) - rowMeans(i) - rowMeans(j) + totalMean
      val (vals, vecs) = Mat.eigSym(kc)
      assert(dist(mul(mul(vecs, diag(vals.toSeq)), tr(vecs)), kc) < 1e-12 * n, s"seed=$seed")
      assert(dist(mul(tr(vecs), vecs), diag(Seq.fill(n)(1.0))) < 1e-12 * n, s"seed=$seed")
      assert(vals.toSeq == vals.toSeq.sorted(Ordering[Double].reverse), s"seed=$seed")
    }
  }

  test("trace of eigenvalues equals trace of matrix") {
    val a = randSpd(6, new Random(21))
    val (vals, _) = Mat.eigSym(a)
    val tr = (0 until 6).map(i => a(i, i)).sum
    assert(math.abs(vals.sum - tr) < 1e-8)
  }
}
