package repro.cluster

import repro.core.{ConfigValues, ExecResult, TuningObjective}
import repro.stats.Rng

/** Analytic Spark-SQL execution-time model — the paper-scale substitute for
  * the authors' two physical clusters (see DESIGN.md §2).
  *
  * For each query the model composes:
  *  - executor packing under node memory/core limits (feasibility clamps on
  *    `spark.executor.instances`, §5.12 constraints);
  *  - scan + CPU stages bounded by `min(slots, maxUsefulPar)` (Amdahl);
  *  - a shuffle stage with compression (zstd level tradeoff), spill when the
  *    per-reducer working set exceeds per-task execution memory, disk/net
  *    bandwidth caps, and the broadcast-join shortcut when
  *    `spark.sql.autoBroadcastJoinThreshold` covers the dimension table;
  *  - a GC model: pressure = working set / on-heap execution memory, relieved
  *    by enabled off-heap memory, plus a large-heap penalty — the mechanism
  *    behind the paper's §5.8 finding that LOCAT's wins come from GC time;
  *  - task scheduling overhead (locality wait, revive interval, driver cores);
  *  - small second-order effects for the remaining Table 2 parameters;
  *  - multiplicative lognormal noise, deterministic in the constructor seed
  *    and call order.
  *
  * `run` returns noisy observations (what tuners see); `expected` is the same
  * run of the whole application without noise (to compare final configurations).
  */
final class SparkClusterSimulator(
    val workload: SimWorkload,
    val cluster: ClusterProfile,
    seed: Long,
) extends TuningObjective {
  import SparkClusterSimulator.Resources

  private var calls: Long = 0L

  override def workloadName: String = workload.name
  override def queries: Seq[String] = workload.queryIds

  override def run(conf: ConfigValues, datasizeGB: Double, subset: Option[Seq[String]] = None): ExecResult = {
    calls += 1
    val rng = Rng(seed * 1000003L + calls * 7919L)
    val profiles = subset.fold(workload.profiles)(_.map(workload.profile))
    // Noise has a run-wide common component (cluster state: co-tenancy,
    // page cache, JIT, GC phase) that does NOT average out across queries —
    // this is what makes argmin-over-noisy-totals (every SOTA tuner's final
    // pick) overconfident — plus a per-query component that grows with the
    // query's shuffle intensity (stragglers, spills, fetch retries).
    val common = math.exp(rng.nextGaussian() * 0.10)
    val times = evaluate(conf, datasizeGB, profiles)
    val perQuery = profiles.zip(times).map { case (q, (t, _)) =>
      val idioSd = 0.04 + 0.12 * (1.0 - math.exp(-4.0 * q.shuffleGBPerGB))
      q.id -> t * common * math.exp(rng.nextGaussian() * idioSd)
    }.toMap
    ExecResult(perQuery, times.map(_._2).sum * common)
  }

  /** Noise-free run of the whole application: per-query times and GC seconds. */
  def expected(conf: ConfigValues, datasizeGB: Double): ExecResult = {
    val times = evaluate(conf, datasizeGB, workload.profiles)
    ExecResult(workload.queryIds.zip(times.map(_._1)).toMap, times.map(_._2).sum)
  }

  /** Noise-free total time of the application, summed in query order. */
  def expectedTotal(conf: ConfigValues, datasizeGB: Double): Double =
    evaluate(conf, datasizeGB, workload.profiles).map(_._1).sum

  /** (seconds, GC seconds) of each of `profiles` under one executor grant. */
  private def evaluate(conf: ConfigValues, ds: Double, profiles: Seq[QueryProfile]): Seq[(Double, Double)] = {
    require(ds > 0, "datasize must be positive")
    val r = resources(conf)
    profiles.map(queryTime(_, r, conf, ds))
  }

  // ---------------------------------------------------------------- model --

  private def sigmoid(x: Double): Double = 1.0 / (1.0 + math.exp(-x))

  /** Effective executor resources after the paper's §5.12 feasibility
    * constraints: the sampler (YARN, in the original setup) guarantees
    * `instances × perExecutorMemory ≤ clusterMemory` and
    * `instances × cores ≤ clusterCores`, so the requested executor count is
    * always granted, with the per-executor memory components and core count
    * scaled down proportionally when the raw request would not fit.
    */
  def resources(conf: ConfigValues): Resources = {
    val reqCores = math.max(1, conf.int("spark.executor.cores"))
    val reqMemGB = math.max(1.0, conf("spark.executor.memory"))
    val reqOverheadGB = math.max(math.max(0.0, conf("spark.executor.memoryOverhead")) / 1024.0, 0.375)
    val reqOffHeapGB = if (conf.bool("spark.memory.offHeap.enabled"))
      math.max(0.0, conf("spark.memory.offHeap.size")) / 1024.0 else 0.0
    val execs = math.max(1, conf.int("spark.executor.instances"))

    val perExecBudget = cluster.totalMemGB.toDouble / execs
    val reqPerExec = reqMemGB + 0.5 * reqOverheadGB + reqOffHeapGB
    val scale = math.min(1.0, perExecBudget / reqPerExec)
    val memGB = math.max(1.0, reqMemGB * scale)
    val overheadGB = reqOverheadGB * scale
    val offHeapGB = reqOffHeapGB * scale
    val cores = math.max(1, math.min(reqCores, cluster.totalCores / execs))
    Resources(execs, cores, execs * cores, memGB, overheadGB, offHeapGB)
  }

  /** (expected seconds, gc seconds) for one query under the grant `r`. */
  private def queryTime(q: QueryProfile, r: Resources, conf: ConfigValues, ds: Double): (Double, Double) = {
    val Resources(execs, execCores, slots, execMemGB, _, offHeapGB) = r
    val memFraction = conf("spark.memory.fraction")
    val storageFraction = conf("spark.memory.storageFraction")

    val usefulSlots = math.min(slots, q.maxUsefulPar)

    // --- scan + cpu stages -------------------------------------------------
    val scanTasks = math.max(1.0, ds * 8.0) // ~128 MB input splits
    val scanPar = math.min(usefulSlots.toDouble, scanTasks)
    val scanSec = q.scanGBPerGB * ds * 1.2 * cluster.cpuFactor / scanPar
    val cpuSec = q.cpuSecPerGB * ds * cluster.cpuFactor / usefulSlots

    // --- shuffle stage ------------------------------------------------------
    var shuffleGB = q.shuffleGBPerGB * ds
    val bcastThresholdMB = conf("spark.sql.autoBroadcastJoinThreshold") / 1024.0
    val broadcastFires = q.dimTableMB > 0 && bcastThresholdMB >= q.dimTableMB
    if (broadcastFires) shuffleGB *= 0.35 // one join side becomes a map-side join

    val compress = conf.bool("spark.shuffle.compress")
    val zstdLevel = math.max(1.0, conf("spark.io.compression.zstd.level"))
    val wireRatio = if (compress) 0.52 - 0.02 * (zstdLevel - 1.0) else 1.0
    val compressCpu = if (compress) shuffleGB * 1.2 * math.sqrt(zstdLevel) * cluster.cpuFactor / slots else 0.0

    val p = math.max(1.0, conf("spark.sql.shuffle.partitions"))
    val execMemForTasksGB = execMemGB * memFraction * (1.0 - 0.5 * storageFraction)
    val memPerTaskGB = execMemForTasksGB / execCores + offHeapGB / execCores
    // a reducer spills once its working set exceeds the sort-buffer share of
    // its task memory; spilling multiplies shuffle IO and CPU (re-reads +
    // merge passes) — this is the main channel through which
    // spark.sql.shuffle.partitions and spark.executor.memory act
    val perReducerGB = shuffleGB / p
    val sortBufferGB = 0.025 * math.max(memPerTaskGB, 0.05)
    val rawSpill = perReducerGB / sortBufferGB - 1.0
    var spill = 1.0 + math.min(6.0, math.max(0.0, rawSpill))
    if (spill > 1.0 && conf.bool("spark.shuffle.spill.compress")) spill = 1.0 + (spill - 1.0) * 0.85

    val wireGB = shuffleGB * wireRatio
    // each executor contributes IO/network lanes, up to the node hardware caps
    val diskMBps = math.min(execs * 80.0, cluster.workerNodes * cluster.diskMBpsPerNode)
    val netMBps = math.min(execs * 60.0, cluster.workerNodes * cluster.netMBpsPerNode) *
      (0.9 + 0.025 * math.min(4.0, conf("spark.shuffle.io.numConnectionsPerPeer") - 1.0))
    val crossNodeFrac = 1.0 - 1.0 / cluster.workerNodes
    val ioSec = wireGB * 1024.0 * 2.0 / diskMBps * spill
    val netSec = wireGB * 1024.0 * crossNodeFrac / netMBps
    val shufflePar = math.min(p, slots.toDouble)
    val shuffleCpuSec = shuffleGB * 14.0 * cluster.cpuFactor / shufflePar * spill
    var shuffleSec = if (shuffleGB > 0) ioSec + netSec + shuffleCpuSec + compressCpu else 0.0

    // bypass-merge fast path for small-partition-count non-aggregations
    if (q.category == QueryCategory.Join && shuffleGB > 0 &&
        p < conf("spark.shuffle.sort.bypassMergeThreshold")) shuffleSec *= 0.97

    // --- scheduling overhead ------------------------------------------------
    val totalTasks = scanTasks + (if (shuffleGB > 0) p else 0.0)
    val waves = totalTasks / slots
    val localityWait = conf("spark.locality.wait")
    val reviveInterval = conf("spark.scheduler.revive.interval")
    val driverCores = math.max(1.0, conf("spark.driver.cores"))
    val schedSec = waves * (0.08 + 0.02 * (localityWait - 1.0) + 0.01 * (reviveInterval - 1.0)) +
      totalTasks * 0.0002 / driverCores

    // --- GC model (the paper's §5.8 mechanism) ------------------------------
    val workingSetGB = q.memGBPerGB * ds
    val onHeapAvailGB = execs * execMemGB * memFraction
    var pressure = workingSetGB / math.max(onHeapAvailGB, 0.1)
    // the grant's off-heap memory is 0 unless spark.memory.offHeap.enabled
    if (workingSetGB > 0) pressure *= 1.0 - math.min(0.6, execs * offHeapGB / math.max(workingSetGB, 0.1))
    val bigHeapPenalty = math.max(0.0, execMemGB - 32.0) * 0.004
    val gcFrac = 0.03 + 0.8 * sigmoid(4.0 * (pressure - 0.6)) + bigHeapPenalty
    val computeSec = scanSec + cpuSec + shuffleSec
    val gcSec = computeSec * gcFrac

    // --- small second-order effects -----------------------------------------
    var m = 1.0
    def logDev(v: Double, opt: Double): Double = math.abs(math.log(math.max(v, 1e-6) / opt) / math.log(2.0))
    m *= 1.0 + 0.015 * logDev(conf("spark.shuffle.file.buffer"), 32.0)
    m *= 1.0 + 0.012 * logDev(conf("spark.reducer.maxSizeInFlight"), 48.0)
    m *= 1.0 + 0.008 * logDev(conf("spark.sql.inMemoryColumnarStorage.batchSize"), 10000.0)
    m *= 1.0 + 0.006 * logDev(conf("spark.broadcast.blockSize"), 4.0)
    m *= 1.0 + 0.004 * logDev(conf("spark.storage.memoryMapThreshold"), 1.0)
    m *= 1.0 + 0.004 * logDev(conf("spark.kryoserializer.buffer.max"), 64.0)
    m *= 1.0 + 0.003 * logDev(conf("spark.io.compression.zstd.bufferSize"), 32.0)
    m *= 1.0 + 0.003 * logDev(conf("spark.kryoserializer.buffer"), 64.0)
    m *= 1.0 + 0.002 * logDev(conf("spark.sql.codegen.maxFields"), 100.0)
    m *= 1.0 + 0.002 * logDev(conf("spark.sql.cartesianProductExec.buffer.in.memory.threshold"), 4096.0)
    if (q.category == QueryCategory.Aggregation && !conf.bool("spark.sql.codegen.aggregate.map.twolevel.enable")) m *= 1.03
    if (q.category != QueryCategory.Selection && !conf.bool("spark.sql.sort.enableRadixSort")) m *= 1.012
    if (!conf.bool("spark.rdd.compress")) m *= 1.01
    if (!conf.bool("spark.broadcast.compress") && q.dimTableMB > 0) m *= 1.02
    if (!conf.bool("spark.sql.inMemoryColumnarStorage.compressed")) m *= 1.01
    if (!conf.bool("spark.sql.inMemoryColumnarStorage.partitionPruning") && q.category == QueryCategory.Selection) m *= 1.04
    if (q.category == QueryCategory.Join && shuffleGB > 1.0 && !conf.bool("spark.sql.join.preferSortMergeJoin")) m *= 1.04
    // spark.sql.retainGroupColumns changes result shape, not speed: no effect.

    val startupSec = 1.5 + execs * 0.002
    val total = q.serialSec + startupSec + computeSec * m + schedSec + gcSec
    (total, gcSec)
  }
}

object SparkClusterSimulator {
  /** Executor resources granted for one configuration (see `resources`). */
  final case class Resources(execs: Int, coresPerExec: Int, slots: Int,
                             execMemGB: Double, overheadGB: Double, offHeapGB: Double)
}
