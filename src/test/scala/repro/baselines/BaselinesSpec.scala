package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestPools.onPool
import repro.cluster.ClusterProfile
import repro.core.{ConfigSpace, ConfigValues, ExecResult, Locat, TestObjectives, TrialLog, Tuner, TuningObjective,
  TuningResult}
import repro.ml.{Ga, Gbrt}
import repro.stats.Rng
import scala.collection.mutable.ArrayBuffer
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
    assert(r.trials.forall(_.result.perQuerySeconds.keySet == obj.queries.toSet)) // Tuneful never reduces queries
  }

  test("DAC finds a good config and pays its sample-collection cost") {
    val obj = TestObjectives.synthetic(3)
    val dac = new Dac(nSamples = 60, gaCandidates = 3, nTrees = 60)
    val r = dac.tune(obj, obj.space, 100.0, 3)
    assert(r.trials.size == 63)
    assert(obj.expected(r.bestConf, 100.0).values.sum < 28.0)
  }

  // a cluster no configuration outgrows
  private val hugeCluster =
    ClusterProfile.arm.copy(name = "huge", memGBPerNode = 100_000_000, coresPerNode = 100_000_000)

  test("GBO-RL memory model accepts feasible and rejects infeasible configs") {
    val g = new GboRl(ClusterProfile.arm)
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

  /** The memory model's three checks (fits a node, fits the cluster, meets
    * the execution-memory floor) as it read a cluster's capacity from three
    * numbers (total memory, total cores, worker count) before it took the
    * profile; a configuration is feasible when all three hold.
    */
  private def threeNumberChecks(clusterMemGB: Double, clusterCores: Int, workerNodes: Int)(
      conf: ConfigValues): (Boolean, Boolean, Boolean) = {
    val execMem = conf("spark.executor.memory")
    val overheadGB = conf("spark.executor.memoryOverhead") / 1024.0
    val offHeapGB = if (conf.bool("spark.memory.offHeap.enabled")) conf("spark.memory.offHeap.size") / 1024.0 else 0.0
    val perExec = execMem + math.max(overheadGB, 0.375) + offHeapGB
    val instances = math.round(conf("spark.executor.instances"))
    val cores = math.max(1L, math.round(conf("spark.executor.cores")))
    val memPerNode = clusterMemGB / workerNodes
    val coresPerNode = clusterCores.toDouble / workerNodes
    val fitsNode = perExec <= memPerNode && cores <= coresPerNode
    val fitsCluster = instances * perExec <= clusterMemGB * 1.05 && instances * cores <= clusterCores * 1.05
    val execShare = execMem * conf("spark.memory.fraction") / cores
    (fitsNode, fitsCluster, execShare >= 0.5)
  }

  test("GBO-RL memory model gives the three-number model's verdicts on 2000 configurations per cluster") {
    // On the two paper clusters the per-node limits never bind inside Table 2's
    // ranges, so a cluster of many small nodes checks the per-node reading too.
    val smallNodes = ClusterProfile.x86.copy(name = "small-nodes", workerNodes = 40, coresPerNode = 8, memGBPerNode = 24)
    Seq(ClusterProfile.arm, ClusterProfile.x86, smallNodes).foreach { c =>
      val space = ConfigSpace.full(c.armRanges)
      val rng = new Random(c.workerNodes.toLong)
      val confs = Seq.fill(2000)(space.random(rng))
      val g = new GboRl(c)
      val checks = confs.map(threeNumberChecks(c.totalMemGB.toDouble, c.totalCores, c.workerNodes))
      val verdicts = confs.map(g.memoryFeasible)
      assert(verdicts == checks.map { case (node, cluster, floor) => node && cluster && floor }, c.name)
      assert(verdicts.contains(true) && verdicts.contains(false), c.name)
      // on small nodes the per-node check alone rejects some configurations
      if (c eq smallNodes) assert(checks.exists { case (node, cluster, floor) => !node && cluster && floor })
    }
  }

  test("GBO-RL tunes the synthetic objective") {
    val obj = TestObjectives.synthetic(4)
    val g = new GboRl(hugeCluster, boIters = 18)
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

  private def smallTuneful = new Tuneful(saRounds = 1, samplesPerRound = 6, keepParams = 3, boIters = 4)
  private def smallQTune = new QTuneRl(episodes = 15, criticRefit = 5)

  test("every tuner meets the tuner contract") {
    val tuners: Seq[Tuner] = Seq(
      new Locat(nQcsa = 12, nIicp = 10, minIter = 3, maxIter = 5),
      new Locat(nQcsa = 12, nIicp = 10, minIter = 3, maxIter = 5, useIicp = false),
      smallTuneful,
      new Dac(nSamples = 20, gaCandidates = 2, nTrees = 30),
      new GboRl(hugeCluster, boIters = 4),
      smallQTune,
      new RandomSearch(10),
      new QcsaIicpGraft(smallTuneful, useQcsa = true, useIicp = false, nQcsa = 12, nIicp = 10),
      new QcsaIicpGraft(smallQTune, useQcsa = false, useIicp = true, nQcsa = 12, nIicp = 10),
      new QcsaIicpGraft(smallTuneful, useQcsa = true, useIicp = true, nQcsa = 12, nIicp = 10))
    tuners.foreach { t =>
      def tuneOnce() = { val obj = TestObjectives.synthetic(7); (obj, t.tune(obj, obj.space, 100.0, 7)) }
      val (obj, r) = tuneOnce()
      assert(r.optimizationSeconds == r.trials.map(_.costSeconds).sum, t.name)
      assert(r.trials.exists(_.conf == r.bestConf), t.name)
      r.trials.foreach { tr =>
        obj.space.params.foreach { p =>
          val (lo, hi) = obj.space.range(p)
          assert(tr.conf(p.name) >= lo && tr.conf(p.name) <= hi, s"${t.name}: ${p.name}")
        }
      }
      assert(tuneOnce()._2 == r, s"${t.name} is not deterministic per seed")
    }
  }

  test("BoSearch pins parameters when asked") {
    val obj = TestObjectives.synthetic(8)
    val pinned = obj.space.defaults.updated("noise.a", 7.0).updated("noise.b", 0.25)
      .updated("noise.c", 0.0).updated("noise.d", 150.0)
    val sub = obj.space.subspace(Seq("knob.one", "knob.two"), pinned)
    val log = new TrialLog(obj)
    BoSearch.run(log, sub, 100.0, new Random(8), nInit = 3, nIter = 5)
    log.trials.foreach { t =>
      assert(t.conf("noise.a") == 7.0 && t.conf("noise.d") == 150.0)
    }
  }

  test("inside an IICP graft the configuration the base tuner builds is the one that runs") {
    val obj = TestObjectives.synthetic(10)
    val ran = ArrayBuffer.empty[ConfigValues]
    val recordingObjective = new TuningObjective {
      def workloadName: String = obj.workloadName
      def queries: Seq[String] = obj.queries
      def run(conf: ConfigValues, ds: Double, subset: Option[Seq[String]]): ExecResult = {
        ran += conf
        obj.run(conf, ds, subset)
      }
    }
    val built = ArrayBuffer.empty[ConfigValues]
    var searchedDim = 0
    val recordingTuner = new Tuner {
      def name: String = "recording"
      def tune(objective: TuningObjective, space: ConfigSpace, ds: Double, seed: Long): TuningResult = {
        searchedDim = space.dim
        val rng = new Random(seed)
        val log = new TrialLog(objective)
        (0 until 4).foreach { _ => val c = space.random(rng); built += c; log.run(c, ds) }
        log.result(log.best)
      }
    }
    val r = new QcsaIicpGraft(recordingTuner, useQcsa = false, useIicp = true, nIicp = 10)
      .tune(recordingObjective, obj.space, 100.0, 10)
    assert(searchedDim < obj.space.dim) // CPS dropped a parameter
    assert(ran.slice(10, 14) == built)  // after the 10 IICP samples
    assert(r.trials.map(_.conf) == ran)
  }

  test("golden: BoSearch trial costs equal those recorded before batched EI scoring") {
    val obj = TestObjectives.synthetic(22)
    val plain = new TrialLog(obj)
    BoSearch.run(plain, obj.space, 100.0, new Random(22), nInit = 3, nIter = 6)
    assert(plain.trials.map(_.costSeconds) == Seq(26.44860352828574, 70.80477311918, 70.0246327370958,
      24.31422953608245, 24.300536720993968, 23.254750487414576, 23.26738655995211, 27.76693979872929,
      21.729931608691263))
    val filtered = new TrialLog(obj)
    BoSearch.run(filtered, obj.space, 100.0, new Random(23), nInit = 0, nIter = 6,
      candidateFilter = (c: ConfigValues) => c("knob.one") <= 50.0)
    assert(filtered.trials.map(_.costSeconds) == Seq(85.41096089055736, 64.21731500309139, 58.105902673928426,
      50.47280278935142, 41.72179378229026, 41.6108368075748, 38.49029133442764))
  }

  test("golden: a BoSearch run whose window passes 32 points keeps its recorded trial costs") {
    // 43 trials: from the 32nd on, every MH chain runs prefetched
    val obj = TestObjectives.synthetic(25)
    val log = new TrialLog(obj)
    BoSearch.run(log, obj.space, 100.0, new Random(25), nInit = 3, nIter = 40)
    assert(log.trials.map(_.costSeconds) == Seq(98.18289692823838, 61.815887621569644, 28.624623117674666,
      30.508245642466207, 24.563854638582338, 22.391683415422584, 24.478662023581773, 25.89808726646038,
      21.94494596321698, 23.198508925813627, 22.61760737445517, 22.665924465303156, 24.631794581802012,
      22.605239707832027, 22.85048506213989, 24.56589409948777, 62.68921441554349, 22.084943347650366,
      24.406831227321252, 21.754525184819542, 22.030272003930023, 21.933951867195802, 22.394458482787215,
      23.523214278241475, 22.91242096096849, 22.30104912874515, 22.076028420525688, 22.286150652720714,
      22.474955265644077, 22.45138855774166, 22.286851603048763, 22.165052577444307, 21.91427551937474,
      22.358550777949866, 21.89306130846382, 22.64694910424489, 21.892174512667943, 22.33453652137395,
      22.427937647999002, 22.109764906801942, 21.938087760744164, 21.98328998350189, 22.106263717273038))
  }

  test("golden: Tuneful trial costs equal those recorded before GBRT presorting") {
    val obj = TestObjectives.synthetic(24)
    val r = new Tuneful(saRounds = 1, samplesPerRound = 10, keepParams = 3, boIters = 4).tune(obj, obj.space, 100.0, 24)
    assert(r.trials.map(_.costSeconds) == Seq(61.4238786170226, 31.076727693907248, 23.004666559748802,
      62.372219349622476, 53.621608346585845, 24.27288666764855, 24.66758424679029, 50.256258913402334,
      104.473209158444, 59.16755472318074, 123.04643433892701, 25.05687051462764, 43.72111046089964,
      26.668457418970124, 22.754931606982673, 25.91371282086243, 28.294883192536872))
  }

  test("golden: DAC trial costs equal those recorded before GBRT presorting") {
    val obj = TestObjectives.synthetic(25)
    val r = new Dac(nSamples = 30, gaCandidates = 3, nTrees = 30).tune(obj, obj.space, 100.0, 25)
    assert(r.trials.size == 33)
    // the 30 random samples do not depend on the model; the 3 GA candidates do
    assert(r.trials.drop(30).map(_.costSeconds) == Seq(22.557608775787354, 22.590226544572477, 22.073557042773047))
  }

  test("DAC's forked GA restarts run the sequential restarts' trials on 1 and 4 workers") {
    // Dac.tune as it was before its GA restarts were forked
    def sequentialDac(objective: TuningObjective, space: ConfigSpace, ds: Double, seed: Long): TuningResult = {
      val rng = Rng(seed)
      val log = new TrialLog(objective)
      (0 until 60).foreach(_ => log.run(space.random(rng), ds))
      val xs = log.trials.map(t => space.encode(t.conf) :+ ds / 1000.0)
      val ys = log.trials.map(t => math.log(t.result.totalSeconds))
      val model = Gbrt.fit(xs, ys, nTrees = 60, maxDepth = 4)
      val candidates = (0 until 5).map { k =>
        Ga.minimize(u => model.predict(u :+ ds / 1000.0), space.dim, Rng(seed * 31 + k), popSize = 40,
          generations = 50)
      }
      val validated = candidates.map(u => log.run(space.decode(u), ds))
      log.result(validated.minBy(_.result.totalSeconds))
    }
    val wantObj = TestObjectives.synthetic(27)
    val want = sequentialDac(wantObj, wantObj.space, 100.0, 27)
    for (threads <- Seq(1, 4)) {
      val obj = TestObjectives.synthetic(27)
      val got = onPool(threads)(new Dac(nSamples = 60, gaCandidates = 5, nTrees = 60).tune(obj, obj.space, 100.0, 27))
      assert(got.trials.map(_.conf) == want.trials.map(_.conf), s"$threads workers")
      assert(got.trials.map(_.costSeconds) == want.trials.map(_.costSeconds), s"$threads workers")
      assert(got.bestConf == want.bestConf, s"$threads workers")
    }
  }

  test("golden: QTune trial costs equal those recorded before GBRT presorting") {
    val obj = TestObjectives.synthetic(26)
    val r = new QTuneRl(episodes = 40, criticRefit = 10).tune(obj, obj.space, 100.0, 26)
    assert(r.trials.map(_.costSeconds) == Seq(40.15031466749671, 31.579134812367272, 25.361807503116886,
      37.05206839964738, 24.670792484736072, 44.18474032386017, 26.982075689268903, 51.03223482785481,
      31.849674173035577, 36.34551743564178, 25.179112497968767, 22.116795543688085, 71.70634330676066,
      72.11286030637469, 22.26743279900809, 22.302686731299374, 22.01726570027173, 21.937535993830107,
      24.304432266213986, 21.937646697719444, 24.25248269796993, 23.014085123374006, 23.479965909997034,
      23.070600710562235, 106.69500059529682, 22.180490224976054, 22.068732547931976, 22.122278171131654,
      21.846258444554117, 22.258488461472155, 21.86456788763203, 22.00462501248564, 22.123250520225767,
      22.16837292689252, 22.29542542307478, 22.111921894491502, 22.645679327528867, 22.422945725396303,
      21.955757251885245, 21.9515622279516))
  }

  test("BoSearch candidateFilter is honored") {
    val obj = TestObjectives.synthetic(9)
    val filter = (c: ConfigValues) => c("knob.one") <= 50.0
    val log = new TrialLog(obj)
    BoSearch.run(log, obj.space, 100.0, new Random(9), nInit = 0, nIter = 6, candidateFilter = filter)
    log.trials.foreach(t => assert(t.conf("knob.one") <= 50.0))
  }
}
