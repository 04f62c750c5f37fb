package repro.bench

import repro.baselines._
import repro.cluster._
import repro.core._
import repro.stats.Stats
import scala.collection.concurrent.TrieMap
import scala.util.Random

/** Shared infrastructure for the bench suites: tuner construction with the
  * paper-scale budgets, a per-JVM memo of tuning runs so the Fig 11/13/
  * 20/21 suites reuse each other's results instead of re-tuning, and the
  * random-configuration samplers of the analysis figures.
  *
  * Budgets (full-application executions) follow each baseline's published
  * sample appetite, scaled to one consistent regime:
  *   Tuneful  = 2×16 significance samples + 190 BO iterations  (≈ 225 runs)
  *   DAC      = 240 model samples + 5 GA-candidate validations  (≈ 245 runs)
  *   GBO-RL   = 5 init + 140 guided-BO iterations               (≈ 145 runs)
  *   QTune    = 320 RL episodes                                 (≈ 320 runs)
  *   LOCAT    = 30 QCSA/IICP runs + 10–60 RQA-only iterations + 1 verification
  *              (the EI stop rule may fire from `minIter` = 10; `maxIter` = 60)
  */
object Bench {
  val Seed = 42L

  val clusters: Seq[ClusterProfile] = Seq(ClusterProfile.arm, ClusterProfile.x86)

  def workload(name: String): SimWorkload =
    Workloads.all.find(_.name == name).getOrElse(sys.error(s"unknown workload $name"))

  def space(c: ClusterProfile): ConfigSpace = ConfigSpace.full(c.armRanges)

  def tuner(name: String, c: ClusterProfile): Tuner = name match {
    case "LOCAT"    => new Locat()
    case "LOCAT-AP" => new Locat(useIicp = false)
    case "Tuneful"  => new Tuneful()
    case "DAC"      => new Dac()
    case "GBO-RL"   => GboRl.forCluster(c)
    case "QTune"    => new QTuneRl()
    case g if g.endsWith("+QCSA+IICP") =>
      new QcsaIicpGraft(tuner(g.stripSuffix("+QCSA+IICP"), c), useQcsa = true, useIicp = true)
    case g if g.endsWith("+QCSA") =>
      new QcsaIicpGraft(tuner(g.stripSuffix("+QCSA"), c), useQcsa = true, useIicp = false)
    case g if g.endsWith("+IICP") =>
      new QcsaIicpGraft(tuner(g.stripSuffix("+IICP"), c), useQcsa = false, useIicp = true)
    case other => sys.error(s"unknown tuner $other")
  }

  val sotaNames: Seq[String] = Seq("Tuneful", "DAC", "GBO-RL", "QTune")

  /** One tuning run's reportables. `cleanTime`/`gcSeconds` are noise-free
    * model evaluations of the best configuration on the full application.
    */
  final case class Cell(result: TuningResult, cleanTime: Double, gcSeconds: Double) {
    def optHours: Double = result.optimizationSeconds / 3600.0
  }

  private val cache = TrieMap.empty[(String, String, String, Double), Cell]

  def run(tunerName: String, workloadName: String, c: ClusterProfile, ds: Double): Cell =
    cache.getOrElseUpdate((tunerName, workloadName, c.name, ds), {
      val w = workload(workloadName)
      val sim = new SparkClusterSimulator(w, c, Seed)
      val r = tuner(tunerName, c).tune(sim, space(c), ds, Seed)
      val cleanTime = sim.expectedTotal(r.bestConf, ds)
      Console.err.println(f"[bench] $tunerName%-18s $workloadName%-11s ${c.name}%-9s ${ds.toInt}%4dGB " +
        f"opt=${r.optimizationSeconds / 3600.0}%7.2fh best=$cleanTime%8.1fs")
      Cell(r, cleanTime, sim.expected(r.bestConf, ds).gcSeconds)
    })

  // LOCAT online sessions (Fig 20): initial tune at 100 GB, continuations after.
  final case class OnlineRun(perDsOptSeconds: Map[Double, Double], perDsCleanTime: Map[Double, Double])
  private val onlineCache = TrieMap.empty[(String, String), OnlineRun]

  def locatOnline(workloadName: String, c: ClusterProfile): OnlineRun =
    onlineCache.getOrElseUpdate((workloadName, c.name), {
      val w = workload(workloadName)
      val sim = new SparkClusterSimulator(w, c, Seed)
      val session = new LocatSession(sim, space(c), Seed)
      val sizes = Workloads.datasizesGB
      val first = session.tuneInitial(sizes.head)
      var opt = Map(sizes.head -> first.optimizationSeconds)
      var clean = Map(sizes.head -> sim.expectedTotal(first.bestConf, sizes.head))
      sizes.tail.foreach { ds =>
        val r = session.tuneNext(ds)
        opt += ds -> r.optimizationSeconds
        clean += ds -> sim.expectedTotal(r.bestConf, ds)
      }
      OnlineRun(opt, clean)
    })

  /** `n` uniformly random configurations of `space`, each with its run on
    * `sim` at `ds` GB, in the order drawn from `rng`.
    */
  def randomRuns(sim: SparkClusterSimulator, space: ConfigSpace, n: Int, ds: Double,
                 rng: Random): IndexedSeq[(ConfigValues, ExecResult)] =
    (1 to n).map { _ =>
      val conf = space.random(rng)
      (conf, sim.run(conf, ds))
    }

  /** SD of the noise-free total time at `ds` GB over `nRuns` configurations
    * that draw only the `selected` parameters at random and hold every other
    * at its default.
    */
  def sdVaryingOnly(sim: SparkClusterSimulator, space: ConfigSpace, selected: Set[String], nRuns: Int, ds: Double,
                    rng: Random): Double = {
    val defaults = space.defaults
    Stats.sd((1 to nRuns).map { _ =>
      val r = space.random(rng)
      sim.expectedTotal(ConfigValues(defaults.values ++ r.values.view.filterKeys(selected).toMap), ds)
    })
  }

  def geomean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)
}
