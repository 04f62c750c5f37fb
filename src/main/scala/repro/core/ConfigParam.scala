package repro.core

/** Kind of a configuration parameter. Numeric parameters carry the cluster's
  * value range (Table 2 "Range A" = ARM, "Range B" = x86); booleans are {0,1}.
  */
sealed trait ParamKind
object ParamKind {
  /** Integer-valued parameter. */
  case object IntK extends ParamKind
  /** Continuous parameter (e.g. spark.memory.fraction). */
  case object DoubleK extends ParamKind
  /** true/false parameter, encoded 1.0/0.0. */
  case object BoolK extends ParamKind
}

/** One of the 38 Spark / Spark SQL parameters of the paper's Table 2.
  *
  * @param name      full Spark property key
  * @param default   Spark default (Table 2 column 2); -1 means cluster-dependent
  * @param kind      int / double / bool
  * @param rangeA    (lo, hi) on the ARM cluster
  * @param rangeB    (lo, hi) on the x86 cluster
  * @param resource  true for the *-starred resource parameters of Table 2
  */
final case class ConfigParam(
    name: String,
    default: Double,
    kind: ParamKind,
    rangeA: (Double, Double),
    rangeB: (Double, Double),
    resource: Boolean = false,
) {
  def isBool: Boolean = kind == ParamKind.BoolK
}

/** The full Table 2 parameter list: 27 numeric + 11 boolean = 38. */
object ConfigParam {
  import ParamKind._

  private def num(name: String, default: Double, a: (Double, Double), b: (Double, Double),
                  resource: Boolean = false, kind: ParamKind = IntK): ConfigParam =
    ConfigParam(name, default, kind, a, b, resource)

  private def bool(name: String, default: Boolean): ConfigParam =
    ConfigParam(name, if (default) 1.0 else 0.0, BoolK, (0.0, 1.0), (0.0, 1.0))

  val all: Seq[ConfigParam] = Seq(
    num("spark.broadcast.blockSize", 4, (1, 16), (1, 16)),
    num("spark.default.parallelism", -1, (100, 1000), (100, 1000)),
    num("spark.driver.cores", 1, (1, 8), (1, 16), resource = true),
    num("spark.driver.memory", 1, (4, 32), (4, 48), resource = true),
    num("spark.executor.cores", 1, (1, 8), (1, 16), resource = true),
    num("spark.executor.instances", 2, (48, 384), (9, 112)),
    num("spark.executor.memory", 1, (4, 32), (4, 48), resource = true),
    num("spark.executor.memoryOverhead", 384, (0, 32768), (0, 49152), resource = true),
    num("spark.io.compression.zstd.bufferSize", 32, (16, 96), (16, 96)),
    num("spark.io.compression.zstd.level", 1, (1, 5), (1, 5)),
    num("spark.kryoserializer.buffer", 64, (32, 128), (32, 128)),
    num("spark.kryoserializer.buffer.max", 64, (32, 128), (32, 128)),
    num("spark.locality.wait", 3, (1, 6), (1, 6)),
    num("spark.memory.fraction", 0.6, (0.5, 0.9), (0.5, 0.9), kind = DoubleK),
    num("spark.memory.storageFraction", 0.5, (0.5, 0.9), (0.5, 0.9), kind = DoubleK),
    num("spark.memory.offHeap.size", 0, (0, 32768), (0, 49152), resource = true),
    num("spark.reducer.maxSizeInFlight", 48, (24, 144), (24, 144)),
    num("spark.scheduler.revive.interval", 1, (1, 5), (1, 5)),
    num("spark.shuffle.file.buffer", 32, (16, 96), (16, 96)),
    num("spark.shuffle.io.numConnectionsPerPeer", 1, (1, 5), (1, 5)),
    num("spark.shuffle.sort.bypassMergeThreshold", 200, (100, 400), (100, 400)),
    num("spark.sql.autoBroadcastJoinThreshold", 1024, (1024, 8192), (1024, 8192)),
    num("spark.sql.cartesianProductExec.buffer.in.memory.threshold", 4096, (1024, 8192), (1024, 8192)),
    num("spark.sql.codegen.maxFields", 100, (50, 200), (50, 200)),
    num("spark.sql.inMemoryColumnarStorage.batchSize", 10000, (5000, 20000), (5000, 20000)),
    num("spark.sql.shuffle.partitions", 200, (100, 1000), (100, 1000)),
    num("spark.storage.memoryMapThreshold", 1, (1, 10), (1, 10)),
    bool("spark.broadcast.compress", default = true),
    bool("spark.memory.offHeap.enabled", default = true),
    bool("spark.rdd.compress", default = true),
    bool("spark.shuffle.compress", default = true),
    bool("spark.shuffle.spill.compress", default = true),
    bool("spark.sql.codegen.aggregate.map.twolevel.enable", default = true),
    bool("spark.sql.inMemoryColumnarStorage.compressed", default = true),
    bool("spark.sql.inMemoryColumnarStorage.partitionPruning", default = true),
    bool("spark.sql.join.preferSortMergeJoin", default = true),
    bool("spark.sql.retainGroupColumns", default = true),
    bool("spark.sql.sort.enableRadixSort", default = true),
  )

  require(all.size == 38, s"Table 2 lists 38 parameters, got ${all.size}")
}
