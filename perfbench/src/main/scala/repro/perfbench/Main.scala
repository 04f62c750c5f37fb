package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** Benchmark entry point: runs one workload and prints one JSON line.
  *
  * Usage: Main --workload <sim-locat-online|sim-sota|real-spark> --seed <n>
  *             --seconds <s> --trace <0|1> [--tiny] [--inject <mode>]
  *
  * After set-up, passes (fixed units of work) repeat while one more still
  * fits in `--seconds` (at least one). With `--trace 0` the line holds the
  * end-to-end metrics; with `--trace 1` the passes are traced and the line
  * holds the per-layer metrics. `--tiny` shrinks every budget for the benchmark's
  * own tests; `--inject` corrupts checked outputs (see `Checks`).
  */
object Main {
  val Baselines: Seq[String] = Seq("Tuneful", "DAC", "GBO-RL", "QTune")

  def main(args: Array[String]): Unit = {
    val opts = args.sliding(2).collect {
      case Array(k, v) if k.startsWith("--") && !v.startsWith("--") => k.drop(2) -> v
    }.toMap
    val tiny = args.contains("--tiny")
    def need(k: String): String = opts.getOrElse(k, sys.error(s"missing --$k"))
    val name = need("workload")
    val seed = need("seed").toLong
    val seconds = need("seconds").toDouble
    val trace = need("trace") == "1"
    val tally = new Tally
    val checks = new Checks(tally, opts.get("inject"))
    val localDir = System.getProperty("java.io.tmpdir") + "/spark"

    val workload: Workload = name match {
      case "sim-locat-online" => new SimLocatOnline(seed, tally, checks, tiny)
      case "sim-sota" => new SimSota(seed, tally, checks, tiny)
      case "real-spark" => new RealSpark(seed, tally, checks, tiny, localDir)
      case other => sys.error(s"unknown workload $other")
    }

    try {
      val setupSeconds = workload.setup()
      Console.err.println(f"[perfbench] $name: set-up $setupSeconds%.3f s")

      val passes = ArrayBuffer.empty[(PassRecorder, PassOutcome)]
      val start = System.nanoTime()
      def elapsed = (System.nanoTime() - start) / 1e9
      // Start another pass only if one more like the last still ends in time.
      def roomForAnother = elapsed + passes.last._1.wallSeconds <= seconds
      while (passes.isEmpty || roomForAnother) {
        val rec = new PassRecorder(traced = trace)
        val (out, wall) = Stat.seconds(workload.pass(rec))
        rec.wallSeconds = wall
        passes += ((rec, out))
        Console.err.println(f"[perfbench] pass ${passes.size}%d${if (rec.traced) " (traced)" else ""}: $wall%.3f s")
      }

      if (workload.deterministic) {
        val (r0, o0) = passes.head
        passes.tail.foreach { case (r, o) =>
          tally.check(o == o0 && r.counts.view.filterKeys(_ != "objective.s").toMap ==
            r0.counts.view.filterKeys(_ != "objective.s").toMap,
            "a repeated pass of the same seeded sessions gave a different outcome")
        }
      }

      val metrics: Seq[(String, Double, String)] =
        if (!trace) endToEnd(setupSeconds, passes.toSeq)
        else perLayer(name, seed, passes.toSeq, traceOverhead(workload), sparkLayers(workload, tally, localDir))
      tally.failures.foreach(f => Console.err.println(s"[perfbench] FAILED: $f"))
      Console.err.println(f"[perfbench] error_rate ${tally.failed}/${tally.attempted} = " +
        f"${tally.failed.toDouble / math.max(tally.attempted, 1)}%.6f")
      println(json(tally, metrics))
    } finally workload.close()
  }

  private def endToEnd(setupSeconds: Double, passes: Seq[(PassRecorder, PassOutcome)]): Seq[(String, Double, String)] = {
    val recs = passes.map(_._1)
    val tune = recs.flatMap(_.tuneCallSeconds)
    val query = recs.flatMap(_.querySeconds)
    Console.err.println(s"[perfbench] samples: ${recs.size} passes, ${tune.size} tuning calls" +
      (if (query.isEmpty) "" else
        f", ${query.size} query walls, p50 ${Stat.median(query)}%.3g s, p95 ${Stat.quantile(query, 0.95)}%.3g s"))
    Seq(
      ("setup_s", setupSeconds, "s"),
      ("wall_s", Stat.median(recs.map(_.wallSeconds)), "s"),
      ("tune_p50_s", Stat.median(tune), "s"),
      ("tune_p95_s", Stat.quantile(tune, 0.95), "s"),
      ("opt_hours", Stat.median(passes.map(p => geomeanOrZero(p._2.optSeconds))) / 3600.0, "h"),
      ("tuned_speedup", Stat.median(passes.map(p => geomeanOrZero(p._2.speedups))), "x"),
    )
  }

  /** Spark execution and oracle layer numbers, from the workload's own Spark
    * session or else from a session started for the replay, which checks the
    * first query against DuckDB.
    */
  private def sparkLayers(workload: Workload, tally: Tally, localDir: String): Map[String, Double] =
    workload.sparkReplay().getOrElse {
      val stage = new SparkStage(tally, localDir)
      try stage.replay(stage.oracleCheck(stage.queries.take(1))) finally stage.close()
    }

  /** Tracing overhead: median wall of the workload's unit traced minus plain,
    * over three alternating pairs.
    */
  private def traceOverhead(workload: Workload): Double = {
    val pairs = (1 to 3).map { _ =>
      (Stat.seconds(workload.unit(new PassRecorder(traced = true)))._2,
        Stat.seconds(workload.unit(new PassRecorder(traced = false)))._2)
    }
    Stat.median(pairs.map(_._1)) - Stat.median(pairs.map(_._2))
  }

  private def perLayer(name: String, seed: Long, passes: Seq[(PassRecorder, PassOutcome)], overhead: Double,
                       spark: Map[String, Double]): Seq[(String, Double, String)] = {
    val traced = passes.map(_._1)
    def med(f: PassRecorder => Double): Double = Stat.median(traced.map(f))
    def count(key: String)(r: PassRecorder): Double = r.counts.getOrElse(key, 0.0)
    val sim = name.startsWith("sim-")
    val replay = LayerReplay.run(seed)

    replay.toSeq.sortBy(_._1).map { case (k, v) => (k, v, if (k.contains("_us")) "us" else "ms") } ++ Seq(
      ("core.self_s", med(_.selfSeconds("core.locat")), "s"),
    ) ++ Baselines.map(b => (s"baselines.$b.self_s", med(_.selfSeconds(s"baselines.$b")), "s")) ++ Seq(
      ("objective.calls", med(count("objective.calls")), "count"),
      ("objective.full_calls", med(count("objective.full_calls")), "count"),
      ("objective.rqa_calls", med(count("objective.rqa_calls")), "count"),
      ("core.queries_per_trial", med(r => count("objective.queries")(r) / math.max(count("objective.calls")(r), 1.0)), "count"),
      ("core.cost_gap_s", med(count("core.cost_gap_s")), "s"),
      ("cluster.s", if (sim) med(count("objective.s")) else 0.0, "s"),
    ) ++ Seq("sparkexec.run_s" -> "s", "sparkexec.tasks" -> "count", "sparkexec.executor_run_s" -> "s",
      "sparkexec.gc_s" -> "s", "sparkexec.shuffle_mb" -> "MB", "sparkexec.spill_mb" -> "MB", "oracle.check_s" -> "s")
      .map { case (k, u) => (k, spark(k), u) } ++ Seq(
      ("trace.overhead_s", overhead, "s"),
    )
  }

  private def geomeanOrZero(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stat.geomean(xs)

  private def json(tally: Tally, metrics: Seq[(String, Double, String)]): String = {
    def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString
    val body = metrics.map { case (k, v, u) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }.mkString(", ")
    s"""{"correct": ${tally.failed == 0}, "attempted": ${tally.attempted}, "failed": ${tally.failed}, "metrics": {$body}}"""
  }
}
