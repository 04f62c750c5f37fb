package repro.baselines

import repro.cluster.ClusterProfile
import repro.core._
import repro.stats.Rng

/** GBO-RL (Kunjir & Babu — SIGMOD 2020, "Black or White?") — Guided Bayesian
  * Optimization with an analytical memory model.
  *
  * The white-box part: a Spark memory model rules out configurations whose
  * executors cannot fit the cluster or whose execution memory is starved; BO
  * only spends samples on memory-feasible candidates. Everything else is
  * plain full-application GP-BO over all parameters — no query reduction, no
  * dimensionality reduction, no datasize awareness.
  *
  * @param cluster the cluster whose memory and cores the model packs into
  * @param boIters guided-BO iterations after the 5 LHS start points
  */
final class GboRl(cluster: ClusterProfile, boIters: Int = 140) extends Tuner {
  override def name: String = "GBO-RL"

  /** Analytical memory-feasibility model (the "white box"). Spaces without
    * memory parameters (unit tests, runtime-only spaces) are always feasible.
    */
  def memoryFeasible(conf: ConfigValues): Boolean = {
    if (conf.get("spark.executor.memory").isEmpty) return true
    val execMem = conf("spark.executor.memory")
    val overheadGB = conf("spark.executor.memoryOverhead") / 1024.0
    val offHeapGB = if (conf.bool("spark.memory.offHeap.enabled")) conf("spark.memory.offHeap.size") / 1024.0 else 0.0
    val perExec = execMem + math.max(overheadGB, 0.375) + offHeapGB
    val instances = math.round(conf("spark.executor.instances"))
    val cores = math.max(1L, math.round(conf("spark.executor.cores")))
    val fitsNode = perExec <= cluster.memGBPerNode && cores <= cluster.coresPerNode
    val fitsCluster = instances * perExec <= cluster.totalMemGB * 1.05 && instances * cores <= cluster.totalCores * 1.05
    // starved execution memory is also rejected by the model
    val execShare = execMem * conf("spark.memory.fraction") / cores
    fitsNode && fitsCluster && execShare >= 0.5
  }

  override def tune(objective: TuningObjective, space: ConfigSpace, ds: Double, seed: Long): TuningResult = {
    val log = new TrialLog(objective)
    BoSearch.run(log, space, ds, Rng(seed), nInit = 5, nIter = boIters, candidateFilter = memoryFeasible)
    log.result(log.best)
  }
}

object GboRl {
  /** Instantiate for a simulated cluster profile. */
  def forCluster(c: ClusterProfile, boIters: Int = 140): GboRl = new GboRl(c, boIters)
}
