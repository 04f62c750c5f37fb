package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.stats.Perceptron
import scala.util.Random

class IicpSpec extends AnyFunSuite {

  private val space = TestObjectives.smallSpace

  /** Samples from a monotone ground truth: time = 100 − 60·u(knob.one) + 30·u(knob.two) + ε. */
  private def monotoneSamples(n: Int, seed: Long, noise: Double = 1.0): Seq[(ConfigValues, Double)] = {
    val rng = new Random(seed)
    (0 until n).map { _ =>
      val c = space.random(rng)
      val u1 = c("knob.one") / 100.0
      val u2 = c("knob.two")
      (c, 100.0 - 60.0 * u1 + 30.0 * u2 + rng.nextGaussian() * noise)
    }
  }

  test("CPS ranks the true knobs first on monotone data") {
    val ranked = Iicp.cps(space, monotoneSamples(40, 1))
    assert(ranked.take(2).map(_._1).toSet == Set("knob.one", "knob.two"))
  }

  test("CPS SCC signs match the effect direction") {
    val ranked = Iicp.cps(space, monotoneSamples(40, 2)).toMap
    assert(ranked("knob.one") < 0) // more knob.one → less time
    assert(ranked("knob.two") > 0)
  }

  test("CPS drops sub-threshold parameters beyond the top-5 floor") {
    // 12-parameter space: 2 real knobs + 10 pure distractors
    val wide = ConfigSpace(
      TestObjectives.smallSpace.params.take(2) ++
        (0 until 10).map(i => ConfigParam(s"noise.$i", 0.5, ParamKind.DoubleK, (0, 1), (0, 1))),
      useRangeA = true)
    val rng = new Random(3)
    val samples = (0 until 200).map { _ =>
      val c = wide.random(rng)
      (c, 100.0 - 60.0 * c("knob.one") / 100.0 + 30.0 * c("knob.two") + rng.nextGaussian() * 0.5)
    }
    val ranked = Iicp.cps(wide, samples)
    val kept = ranked.map(_._1).toSet
    assert(kept("knob.one") && kept("knob.two"))
    assert(ranked.take(2).map(_._1).toSet == Set("knob.one", "knob.two"))
    // distractors' true SCC is 0; at n=200 sampling noise ≈ 1/√199 ≈ 0.07 ≪ 0.2,
    // so only the top-5 floor can keep any — at least 7 of 10 must be dropped
    assert(ranked.size <= 5, s"kept ${ranked.size}")
  }

  test("CPS keeps at least the top 5 when nothing clears the threshold") {
    val rng = new Random(4)
    val flat = (0 until 200).map(_ => (space.random(rng), 50.0 + rng.nextGaussian() * 0.001))
    val ranked = Iicp.cps(space, flat)
    assert(ranked.size >= 5)
  }

  test("CPS requires at least 3 samples") {
    intercept[IllegalArgumentException] { Iicp.cps(space, monotoneSamples(2, 5)) }
  }

  test("fit produces a feature map whose dimension is ≤ ceil(kept/3) bounded below by 3") {
    val m = Iicp.fit(space, monotoneSamples(30, 6))
    assert(m.nFeatures >= 1)
    assert(m.nFeatures <= math.max(3, math.ceil(m.keptParams.size / 3.0).toInt))
    assert(m.features(space.defaults).length == m.nFeatures)
  }

  test("extracted features vary with important params, not with dropped ones") {
    val m = Iicp.fit(space, monotoneSamples(200, 7, noise = 0.5))
    assume(!m.keptParams.contains("noise.d"))
    val base = space.defaults
    val f0 = m.features(base)
    val fImportant = m.features(base.updated("knob.one", 90.0))
    val fDropped = m.features(base.updated("noise.d", 190.0))
    def dist(a: Array[Double], b: Array[Double]) =
      math.sqrt(a.zip(b).map { case (x, y) => (x - y) * (x - y) }.sum)
    assert(dist(f0, fImportant) > 1e-6)
    assert(dist(f0, fDropped) < 1e-9) // dropped params cannot move the features
  }

  test("explicit kernels are honored") {
    val samples = monotoneSamples(25, 9)
    val m = Iicp.fit(space, samples, kernel = Some(Perceptron))
    assert(m.kpca.kernel == Perceptron)
  }

  test("IICP on the full 38-parameter Table 2 space runs and keeps a strict subset") {
    val full = ConfigSpace.full(arm = true)
    val rng = new Random(10)
    // ground truth: shuffle.partitions and executor.memory drive time
    val samples = (0 until 30).map { _ =>
      val c = full.random(rng)
      val t = 1000.0 - 0.5 * c("spark.sql.shuffle.partitions") - 8.0 * c("spark.executor.memory") +
        rng.nextGaussian() * 20.0
      (c, t)
    }
    val m = Iicp.fit(full, samples)
    assert(m.keptParams.nonEmpty && m.keptParams.size < 38)
    assert(m.keptParams.contains("spark.sql.shuffle.partitions"))
    assert(m.keptParams.contains("spark.executor.memory"))
    assert(m.nFeatures <= math.max(3, math.ceil(m.keptParams.size / 3.0).toInt))
  }
}
