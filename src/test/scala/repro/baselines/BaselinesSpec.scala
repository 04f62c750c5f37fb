package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ConfigValues, TestObjectives}
import scala.util.Random

class BaselinesSpec extends AnyFunSuite {

  private def expectedAtBest(tuner: repro.core.Tuner, seed: Long): Double = {
    val obj = TestObjectives.synthetic(seed)
    val r = tuner.tune(obj, obj.space, 100.0, seed)
    obj.expected(r.bestConf, 100.0).values.sum
  }

  // synthetic optimum is 22.0 at ds=100; a random config averages ~35

  test("Tuneful finds a good config on the synthetic objective") {
    assert(expectedAtBest(new Tuneful(saRounds = 1, samplesPerRound = 10, keepParams = 3, boIters = 20), 1) < 27.0)
  }

  test("Tuneful runs its significance phase before BO") {
    val obj = TestObjectives.synthetic(2)
    val r = new Tuneful(saRounds = 2, samplesPerRound = 8, keepParams = 3, boIters = 5).tune(obj, obj.space, 100.0, 2)
    assert(r.trials.size == 16 + 3 + 5) // SA samples + BO init + BO iters
    assert(r.trials.forall(_.fullApp))  // Tuneful never reduces queries
  }

  test("DAC finds a good config and pays its sample-collection cost") {
    val obj = TestObjectives.synthetic(3)
    val dac = new Dac(nSamples = 60, gaCandidates = 3, nTrees = 60)
    val r = dac.tune(obj, obj.space, 100.0, 3)
    assert(r.trials.size == 63)
    assert(obj.expected(r.bestConf, 100.0).values.sum < 28.0)
  }

  test("GBO-RL memory model accepts feasible and rejects infeasible configs") {
    val g = new GboRl(clusterMemGB = 1536, clusterCores = 384, workerNodes = 3)
    val space = repro.core.ConfigSpace.full(arm = true)
    val ok = space.defaults
      .updated("spark.executor.memory", 16).updated("spark.executor.instances", 48)
      .updated("spark.executor.cores", 4).updated("spark.executor.memoryOverhead", 1024)
      .updated("spark.memory.offHeap.enabled", 0.0)
    assert(g.memoryFeasible(ok))
    val tooBig = ok.updated("spark.executor.memory", 32).updated("spark.executor.instances", 384)
      .updated("spark.executor.memoryOverhead", 32768) // 384 × 64 GB ≫ 1.5 TB
    assert(!g.memoryFeasible(tooBig))
    val starved = ok.updated("spark.executor.memory", 4).updated("spark.executor.cores", 8)
      .updated("spark.memory.fraction", 0.5) // 0.25 GB execution memory per core
    assert(!g.memoryFeasible(starved))
  }

  test("GBO-RL tunes the synthetic objective") {
    val obj = TestObjectives.synthetic(4)
    val g = new GboRl(nInit = 3, boIters = 20, clusterMemGB = 1e9, clusterCores = Int.MaxValue / 2, workerNodes = 3)
    val r = g.tune(obj, obj.space, 100.0, 4)
    assert(obj.expected(r.bestConf, 100.0).values.sum < 27.0)
    assert(r.trials.size == 23)
  }

  test("QTune improves over its own first episode") {
    val obj = TestObjectives.synthetic(5)
    val q = new QTuneRl(episodes = 60, criticRefit = 10)
    val r = q.tune(obj, obj.space, 100.0, 5)
    val first = r.trials.head.result.totalSeconds
    assert(r.bestTimeSeconds <= first)
    assert(r.trials.size == 60)
    assert(obj.expected(r.bestConf, 100.0).values.sum < 30.0)
  }

  test("RandomSearch respects its budget and returns its observed best") {
    val obj = TestObjectives.synthetic(6)
    val r = new RandomSearch(25).tune(obj, obj.space, 100.0, 6)
    assert(r.trials.size == 25)
    assert(r.bestTimeSeconds == r.trials.map(_.result.totalSeconds).min)
  }

  test("every baseline's optimization cost equals the sum of its trial costs") {
    val tuners = Seq(
      new Tuneful(saRounds = 1, samplesPerRound = 6, keepParams = 3, boIters = 4),
      new Dac(nSamples = 20, gaCandidates = 2, nTrees = 30),
      new QTuneRl(episodes = 15, criticRefit = 5),
      new RandomSearch(10))
    tuners.foreach { t =>
      val obj = TestObjectives.synthetic(7)
      val r = t.tune(obj, obj.space, 100.0, 7)
      assert(math.abs(r.optimizationSeconds - r.trials.map(_.costSeconds).sum) < 1e-9, t.name)
    }
  }

  test("BoSearch pins parameters when asked") {
    val obj = TestObjectives.synthetic(8)
    val sub = obj.space.subspace(Seq("knob.one", "knob.two"))
    val pinned = Map("noise.a" -> 7.0, "noise.b" -> 0.25, "noise.c" -> 0.0, "noise.d" -> 150.0)
    val st = BoSearch.run(obj, sub, 100.0, new Random(8), nInit = 3, nIter = 5, pinned = pinned)
    st.trials.foreach { t =>
      assert(t.conf("noise.a") == 7.0 && t.conf("noise.d") == 150.0)
    }
  }

  test("golden: BoSearch trial costs equal those recorded before batched EI scoring") {
    val obj = TestObjectives.synthetic(22)
    val plain = BoSearch.run(obj, obj.space, 100.0, new Random(22), nInit = 3, nIter = 6)
    assert(plain.trials.map(_.costSeconds) == Seq(26.44860352828574, 70.80477311918, 70.0246327370958,
      24.31422953608245, 24.300536720993968, 23.254750487414576, 23.26738655995211, 27.76693979872929,
      21.729931608691263))
    val filtered = BoSearch.run(obj, obj.space, 100.0, new Random(23), nInit = 0, nIter = 6,
      candidateFilter = (c: ConfigValues) => c("knob.one") <= 50.0)
    assert(filtered.trials.map(_.costSeconds) == Seq(85.41096089055736, 64.21731500309139, 58.105902673928426,
      50.47280278935142, 41.72179378229026, 41.6108368075748, 38.49029133442764))
  }

  test("BoSearch candidateFilter is honored") {
    val obj = TestObjectives.synthetic(9)
    val filter = (c: ConfigValues) => c("knob.one") <= 50.0
    val st = BoSearch.run(obj, obj.space, 100.0, new Random(9), nInit = 0, nIter = 6,
      candidateFilter = filter)
    st.trials.foreach(t => assert(t.conf("knob.one") <= 50.0))
  }
}
