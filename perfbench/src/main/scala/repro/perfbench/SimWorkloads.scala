package repro.perfbench

import repro.baselines.{Dac, GboRl, QTuneRl, Tuneful}
import repro.cluster.{ClusterProfile, SimWorkload, SparkClusterSimulator, Workloads}
import repro.core.{ConfigSpace, LocatSession, Tuner}

/** Workloads on the analytic cluster simulator. Each pass repeats the same
  * seeded sessions, so the tuning outcome of every pass must be identical;
  * a pass that differs is counted as a failed check.
  */
object Sim {
  val clusters: Seq[ClusterProfile] = Seq(ClusterProfile.arm, ClusterProfile.x86)

  def space(c: ClusterProfile): ConfigSpace = ConfigSpace.full(c.armRanges)

  def workload(name: String): SimWorkload =
    Workloads.all.find(_.name == name).getOrElse(sys.error(s"unknown workload $name"))

  /** Set-up of a simulator workload: the median wall of five repetitions of its unit. */
  def setup(w: Workload): Double =
    Stat.median((1 to 5).map(_ => Stat.seconds(w.unit(new PassRecorder(traced = false)))._2))
}

/** LOCAT online: `tuneInitial` at the first datasize, then `tuneNext` at each
  * larger one, for every simulated application on both clusters, with
  * `seedsPerCell` sessions per (application, cluster).
  */
final class SimLocatOnline(seed: Long, tally: Tally, checks: Checks, tiny: Boolean) extends Workload {
  private val runner = new CallRunner(tally)
  private val seedsPerCell = if (tiny) 1 else 4
  private val cells: Seq[(SimWorkload, ClusterProfile)] =
    if (tiny) Seq((Sim.workload("TPC-H"), ClusterProfile.arm))
    else for (w <- Workloads.all; c <- Sim.clusters) yield (w, c)
  private val sizes = if (tiny) Workloads.datasizesGB.take(2) else Workloads.datasizesGB

  override def deterministic: Boolean = true

  // Budgets fixed at LOCAT's minimums, where almost every session stops anyway,
  // so every session makes 65 executions and a pass's work does not vary by seed.
  private def session(obj: BenchObjective, c: ClusterProfile, s: Long): LocatSession =
    if (tiny) new LocatSession(obj, Sim.space(c), s, nQcsa = 6, nIicp = 5, minIter = 2, maxIter = 3,
      nextMinIter = 1, nextMaxIter = 2)
    else new LocatSession(obj, Sim.space(c), s, minIter = 10, maxIter = 10, nextMinIter = 5, nextMaxIter = 5)

  override def setup(): Double = Sim.setup(this)

  // Build the inputs of one TPC-H session on the ARM cluster and run its first two calls.
  override def unit(rec: PassRecorder): Unit = {
    val s = Stat.derive(seed, "unit")
    val obj = new BenchObjective(new SparkClusterSimulator(Sim.workload("TPC-H"), ClusterProfile.arm, s),
      new Tally, perQueryWalls = false)
    obj.rec = rec
    val ls = session(obj, ClusterProfile.arm, s)
    rec.span("core.locat")(ls.tuneInitial(sizes.head))
    rec.span("core.locat")(ls.tuneNext(sizes(1)))
  }

  override def pass(rec: PassRecorder): PassOutcome = {
    val opt = scala.collection.mutable.ArrayBuffer.empty[Double]
    val speedups = scala.collection.mutable.ArrayBuffer.empty[Double]
    for ((w, c) <- cells; k <- 0 until seedsPerCell) {
      val s = Stat.derive(seed, s"${w.name}/${c.name}/$k")
      val sim = new SparkClusterSimulator(w, c, s)
      val obj = new BenchObjective(sim, tally, perQueryWalls = false)
      obj.rec = rec
      val space = Sim.space(c)
      val ls = session(obj, c, s)
      val label = s"LOCAT ${w.name} ${c.name} seed $s"
      var reported = 0.0
      var ok = true
      sizes.zipWithIndex.foreach { case (ds, i) =>
        if (ok) {
          val first = i == 0
          runner.call(rec, "core.locat", s"$label ${ds}GB")(
            if (first) ls.tuneInitial(ds) else ls.tuneNext(ds)) match {
            case Some(r) =>
              checks.bestConf(s"$label ${ds}GB", space, r)
              val cost = checks.reportedCost(r)
              if (first) checks.oneShotCost(s"$label ${ds}GB", r)
              else rec.add("core.cost_gap_s", r.trials.map(_.costSeconds).sum - cost)
              reported += cost
              speedups += sim.expectedTotal(space.defaults, ds) / sim.expectedTotal(r.bestConf, ds)
            case None => ok = false
          }
        }
      }
      if (ok) {
        checks.costsAgree(s"$label session", ls.cumulativeOptimizationSeconds, reported)
        opt += reported
      }
    }
    PassOutcome(opt.toSeq, speedups.toSeq)
  }
}

/** The four state-of-the-art baselines, one-shot, on TPC-DS and TPC-H at
  * 300 GB on the ARM cluster; every (application, tuner) cell has its own seed.
  */
final class SimSota(seed: Long, tally: Tally, checks: Checks, tiny: Boolean) extends Workload {
  private val runner = new CallRunner(tally)
  private val cluster = ClusterProfile.arm
  private val ds = 300.0
  private val apps = if (tiny) Seq("TPC-H") else Seq("TPC-DS", "TPC-H")

  override def deterministic: Boolean = true

  private def tuners(small: Boolean): Seq[Tuner] =
    if (small) Seq(
      new Tuneful(saRounds = 1, samplesPerRound = 8, keepParams = 5, boIters = 3),
      new Dac(nSamples = 20, gaCandidates = 2, nTrees = 10),
      GboRl.forCluster(cluster, boIters = 3),
      new QTuneRl(episodes = 20, criticRefit = 5))
    else Seq(new Tuneful(), new Dac(), GboRl.forCluster(cluster), new QTuneRl())

  override def setup(): Double = Sim.setup(this)

  // Build the inputs of TPC-H and run every tuner once on a small budget.
  override def unit(rec: PassRecorder): Unit = tuners(small = true).foreach { t =>
    val s = Stat.derive(seed, s"unit/${t.name}")
    val obj = new BenchObjective(new SparkClusterSimulator(Sim.workload("TPC-H"), cluster, s),
      new Tally, perQueryWalls = false)
    obj.rec = rec
    rec.span(s"baselines.${t.name}")(t.tune(obj, Sim.space(cluster), ds, s))
  }

  override def pass(rec: PassRecorder): PassOutcome = {
    val opt = scala.collection.mutable.ArrayBuffer.empty[Double]
    val speedups = scala.collection.mutable.ArrayBuffer.empty[Double]
    val space = Sim.space(cluster)
    for (app <- apps; t <- tuners(small = tiny)) {
      val s = Stat.derive(seed, s"$app/${t.name}")
      val sim = new SparkClusterSimulator(Sim.workload(app), cluster, s)
      val obj = new BenchObjective(sim, tally, perQueryWalls = false)
      obj.rec = rec
      val label = s"${t.name} $app seed $s"
      runner.call(rec, s"baselines.${t.name}", label)(t.tune(obj, space, ds, s)).foreach { r =>
        checks.bestConf(label, space, r)
        checks.oneShotCost(label, r)
        opt += checks.reportedCost(r)
        speedups += sim.expectedTotal(space.defaults, ds) / sim.expectedTotal(r.bestConf, ds)
      }
    }
    PassOutcome(opt.toSeq, speedups.toSeq)
  }
}
