package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.gp.EiMcmc
import repro.gp.EiMcmc.Observation
import scala.util.Random

class DagpSpec extends AnyFunSuite {

  /** A DAGP observation of configuration feature `u` at datasize `ds`. */
  private def sample(u: Double, ds: Double, seconds: Double): Observation =
    Observation(Dagp.inputVec(Array(u), ds), seconds, None)

  test("inputVec appends normalized datasize") {
    val v = Dagp.inputVec(Array(0.3, 0.7), 500.0)
    assert(v.toSeq == Seq(0.3, 0.7, 0.5))
  }

  test("samples with non-positive time are rejected") {
    intercept[IllegalArgumentException] { sample(0.1, 100.0, 0.0) }
  }

  test("DAGP predicts time increasing with datasize after seeing two sizes") {
    val rng = new Random(1)
    // time = 100 * (1 + ds/1000) * (1 + (u-0.5)^2), observed at ds=100 and ds=400
    def t(u: Double, ds: Double) = 100.0 * (1 + ds / 1000.0) * (1.0 + (u - 0.5) * (u - 0.5))
    val samples = for (ds <- Seq(100.0, 400.0); u <- (0 to 5).map(_ * 0.2))
      yield sample(u, ds, t(u, ds))
    val model = EiMcmc.fitLogSeconds(samples, rng, nSamples = 4, nBurn = 12, thin = 3)
    val (muSmall, _) = model.predict(Dagp.inputVec(Array(0.5), 100.0))
    val (muLarge, _) = model.predict(Dagp.inputVec(Array(0.5), 400.0))
    assert(muLarge > muSmall) // log-time ordering preserved
  }

  test("DAGP interpolates to an unseen datasize between observed ones") {
    val rng = new Random(2)
    def t(u: Double, ds: Double) = 50.0 * (1 + ds / 500.0) + 100.0 * (u - 0.3) * (u - 0.3)
    val samples = for (ds <- Seq(100.0, 500.0); u <- (0 to 4).map(_ * 0.25))
      yield sample(u, ds, t(u, ds))
    val model = EiMcmc.fitLogSeconds(samples, rng, nSamples = 4, nBurn = 12, thin = 3)
    val (mu100, _) = model.predict(Dagp.inputVec(Array(0.3), 100.0))
    val (mu300, _) = model.predict(Dagp.inputVec(Array(0.3), 300.0))
    val (mu500, _) = model.predict(Dagp.inputVec(Array(0.3), 500.0))
    assert(mu100 < mu300 && mu300 < mu500)
  }

  test("EI stop threshold equals ln(1.1)") {
    assert(math.abs(Dagp.EiStopThreshold - math.log(1.1)) < 1e-12)
  }

  test("DAGP finds the config optimum per datasize in a short BO loop") {
    val rng = new Random(3)
    def t(u: Double, ds: Double) = (10.0 + 200.0 * (u - 0.75) * (u - 0.75)) * (1 + ds / 1000.0)
    var samples = (for (u <- Seq(0.1, 0.5, 0.9)) yield sample(u, 200.0, t(u, 200.0))).toVector
    for (_ <- 0 until 12) {
      // no unit on any sample, so the pool is 64 uniform candidates
      val (pick, _) = EiMcmc.propose(samples, rng, nSamples = 4, nBurn = 12, thin = 3, dim = 1,
        nRandom = 64, nLocal = 0, sigmas = Seq(0.08), input = Dagp.inputVec(_, 200.0))
      samples :+= sample(pick(0), 200.0, t(pick(0), 200.0))
    }
    val bestU = samples.minBy(_.seconds).x(0)
    assert(math.abs(bestU - 0.75) < 0.12, s"bestU=$bestU")
  }
}
