package repro.stats

import org.apache.commons.math3.exception.NotANumberException
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class StatsSpec extends AnyFunSuite {

  test("mean / sd of a known series") {
    val xs = Seq(2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0)
    assert(Stats.mean(xs) == 5.0)
    assert(math.abs(Stats.sd(xs) - 2.0) < 1e-12) // classic population-SD example
  }

  test("cv is sd/mean and 0 for zero-mean series") {
    assert(math.abs(Stats.cv(Seq(2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0)) - 0.4) < 1e-12)
    assert(Stats.cv(Seq(-1.0, 1.0)) == 0.0)
    assert(Stats.cv(Seq(5.0, 5.0, 5.0)) == 0.0)
  }

  test("cv is scale-invariant") {
    val rng = new Random(5)
    val xs = Seq.fill(50)(rng.nextDouble() * 10 + 1)
    assert(math.abs(Stats.cv(xs) - Stats.cv(xs.map(_ * 37.5))) < 1e-12)
  }

  test("meanRelativeError known value") {
    assert(math.abs(Stats.meanRelativeError(Seq(110.0, 90.0), Seq(100.0, 100.0)) - 0.1) < 1e-12)
  }

  test("spearman is 1 for any monotone increasing transform") {
    val xs = Seq(1.0, 2.0, 3.0, 4.0, 5.0)
    assert(math.abs(Stats.spearman(xs, xs.map(x => math.exp(x))) - 1.0) < 1e-12)
    assert(math.abs(Stats.spearman(xs, xs.map(x => x * x * x)) - 1.0) < 1e-12)
  }

  test("spearman is -1 for monotone decreasing transform") {
    val xs = Seq(1.0, 2.0, 3.0, 4.0, 5.0)
    assert(math.abs(Stats.spearman(xs, xs.map(x => 1.0 / x)) + 1.0) < 1e-12)
  }

  test("spearman matches the classic tied example") {
    // Zar's example structure: ties handled by average ranks
    val x = Seq(106.0, 100.0, 86.0, 101.0, 99.0, 103.0, 97.0, 113.0, 112.0, 110.0)
    val y = Seq(7.0, 27.0, 2.0, 50.0, 28.0, 29.0, 20.0, 12.0, 6.0, 17.0)
    val got = Stats.spearman(x, y)
    assert(math.abs(got - (-0.17575757575757578)) < 1e-9) // −29/165
  }

  test("spearman of independent noise is near 0 on average") {
    val rng = new Random(7)
    val vals = (0 until 200).map { _ =>
      val xs = Seq.fill(100)(rng.nextDouble())
      val ys = Seq.fill(100)(rng.nextDouble())
      Stats.spearman(xs, ys)
    }
    assert(math.abs(vals.sum / vals.size) < 0.05)
  }

  test("spearman of a constant series is 0") {
    assert(Stats.spearman(Seq(1.0, 1.0, 1.0), Seq(1.0, 2.0, 3.0)) == 0.0)
    assert(Stats.spearman(Seq(1.0, 2.0, 3.0), Seq(4.0, 4.0, 4.0)) == 0.0)
  }

  test("spearman throws on a NaN input") {
    intercept[NotANumberException](Stats.spearman(Seq(1.0, Double.NaN, 3.0), Seq(1.0, 2.0, 3.0)))
  }

  test("normCdf at 0 is 0.5 and is monotone") {
    assert(math.abs(Stats.normCdf(0.0) - 0.5) < 1e-7)
    assert(Stats.normCdf(1.0) > Stats.normCdf(0.5))
    assert(math.abs(Stats.normCdf(1.96) - 0.975) < 1e-3)
    assert(math.abs(Stats.normCdf(-1.96) - 0.025) < 1e-3)
  }

  test("normPdf is symmetric and peaks at 0") {
    assert(math.abs(Stats.normPdf(1.3) - Stats.normPdf(-1.3)) < 1e-12)
    assert(Stats.normPdf(0.0) > Stats.normPdf(0.1))
    assert(math.abs(Stats.normPdf(0.0) - 0.3989422804) < 1e-9)
  }

  test("erf known values") {
    assert(math.abs(Stats.erf(0.0)) < 1e-8) // A&S 7.1.26 is ~1e-9 at 0
    assert(math.abs(Stats.erf(1.0) - 0.8427007929) < 1e-6)
    assert(math.abs(Stats.erf(-1.0) + 0.8427007929) < 1e-6)
  }

  test("mean of empty sequence throws") {
    intercept[IllegalArgumentException] { Stats.mean(Seq.empty) }
  }
}
