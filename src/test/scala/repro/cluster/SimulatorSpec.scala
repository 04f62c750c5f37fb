package repro.cluster

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ConfigSpace, ConfigValues, Qcsa}
import scala.util.Random

class SimulatorSpec extends AnyFunSuite {

  private val armSpace = ConfigSpace.full(arm = true)
  private def sim(w: SimWorkload = Workloads.tpcds, c: ClusterProfile = ClusterProfile.arm, seed: Long = 1) =
    new SparkClusterSimulator(w, c, seed)

  /** A sane mid-range configuration for the ARM cluster. */
  private def goodConf: ConfigValues = armSpace.defaults
    .updated("spark.executor.instances", 96)
    .updated("spark.executor.cores", 4)
    .updated("spark.executor.memory", 16)
    .updated("spark.executor.memoryOverhead", 2048)
    .updated("spark.sql.shuffle.partitions", 600)
    .updated("spark.shuffle.compress", 1.0)
    .updated("spark.memory.offHeap.enabled", 1.0)
    .updated("spark.memory.offHeap.size", 4096)

  test("workloads match Table 1: five apps, TPC-DS has 104 queries, TPC-H 22") {
    assert(Workloads.all.map(_.name) == Seq("TPC-DS", "TPC-H", "Join", "Scan", "Aggregation"))
    assert(Workloads.tpcds.profiles.size == 104)
    assert(Workloads.tpch.profiles.size == 22)
    assert(Workloads.hibenchJoin.profiles.size == 1)
    assert(Workloads.datasizesGB == Seq(100.0, 200.0, 300.0, 400.0, 500.0))
  }

  test("the paper's 23 CSQs and 13 selection queries exist in the TPC-DS ids") {
    val ids = Workloads.tpcdsIds.toSet
    Workloads.tpcdsCsq.foreach(q => assert(ids(q), q))
    Workloads.tpcdsSelection.foreach(q => assert(ids(q), q))
  }

  test("Q72 shuffles 52 GB per 100 GB input; Q08 about 5 MB (paper §5.11)") {
    assert(Workloads.tpcds.profile("Q72").shuffleGBPerGB == 0.52)
    assert(math.abs(Workloads.tpcds.profile("Q08").shuffleGBPerGB * 100.0 - 0.005) < 0.002)
  }

  test("execution time grows with datasize for every query category") {
    val s = sim()
    for (q <- Seq("Q72", "Q09", "Q04")) {
      val t100 = s.expected(goodConf, 100.0).perQuerySeconds(q)
      val t500 = s.expected(goodConf, 500.0).perQuerySeconds(q)
      assert(t500 > t100, s"$q: $t100 -> $t500")
    }
  }

  test("run() is noisy but expected() is deterministic") {
    val s1 = sim(seed = 5)
    val a = s1.run(goodConf, 100.0).totalSeconds
    val b = s1.run(goodConf, 100.0).totalSeconds
    assert(a != b) // noise differs call to call
    assert(sim(seed = 9).expected(goodConf, 100.0) == sim(seed = 5).expected(goodConf, 100.0))
    assert(sim(seed = 9).expectedTotal(goodConf, 100.0) == sim(seed = 5).expectedTotal(goodConf, 100.0))
  }

  test("same seed ⇒ identical run sequences (reproducibility)") {
    val a = sim(seed = 7).run(goodConf, 100.0)
    val b = sim(seed = 7).run(goodConf, 100.0)
    assert(a.perQuerySeconds == b.perQuerySeconds)
  }

  test("subset runs only the requested queries and costs less") {
    val s = sim()
    val sub = s.run(goodConf, 100.0, Some(Seq("Q72", "Q29")))
    assert(sub.perQuerySeconds.keySet == Set("Q72", "Q29"))
    assert(sub.totalSeconds < s.expectedTotal(goodConf, 100.0))
  }

  test("selection queries are near-insensitive, Q72 is highly sensitive") {
    val s = sim()
    val rng = new Random(11)
    val runs = (0 until 25).map(_ => s.expected(armSpace.random(rng), 100.0).perQuerySeconds)
    def cv(q: String) = repro.stats.Stats.cv(runs.map(_(q)))
    assert(cv("Q72") > 5 * cv("Q09"), s"Q72=${cv("Q72")} Q09=${cv("Q09")}")
    assert(cv("Q72") > 5 * cv("Q04"), s"Q04=${cv("Q04")} should be insensitive though long")
  }

  test("Q04 is long despite being insensitive (paper §5.2)") {
    val s = sim()
    val t = s.expected(goodConf, 100.0).perQuerySeconds
    assert(t("Q04") > 50.0, s"Q04=${t("Q04")}")
    val medianAll = t.values.toSeq.sorted.apply(t.size / 2)
    assert(t("Q04") > medianAll * 2)
  }

  test("QCSA over simulator runs keeps Q72 and drops the selection queries") {
    val s = sim()
    val rng = new Random(13)
    val runs = (0 until 30).map(_ => s.run(armSpace.random(rng), 100.0).perQuerySeconds)
    val r = Qcsa.analyze(runs, s.queries)
    assert(r.sensitive.contains("Q72"))
    Workloads.tpcdsSelection.foreach(q => assert(!r.sensitive.contains(q), s"$q should be CIQ"))
    assert(r.sensitive.size < 50, s"kept ${r.sensitive.size} of 104")
  }

  test("shuffle compression helps shuffle-heavy queries, barely matters for selection") {
    val s = sim()
    val on = goodConf.updated("spark.shuffle.compress", 1.0)
    val off = goodConf.updated("spark.shuffle.compress", 0.0)
    val (tOff, tOn) = (s.expected(off, 300.0).perQuerySeconds, s.expected(on, 300.0).perQuerySeconds)
    val q72gain = tOff("Q72") / tOn("Q72")
    val q09gain = tOff("Q09") / tOn("Q09")
    assert(q72gain > 1.15, s"q72gain=$q72gain")
    assert(q09gain < 1.02, s"q09gain=$q09gain")
  }

  test("too few shuffle partitions causes spill slowdown on big shuffles") {
    val s = sim()
    val few = goodConf.updated("spark.sql.shuffle.partitions", 100)
      .updated("spark.executor.memory", 4).updated("spark.memory.offHeap.enabled", 0.0)
    val many = few.updated("spark.sql.shuffle.partitions", 1000)
    assert(s.expected(few, 500.0).perQuerySeconds("Q72") > 1.2 * s.expected(many, 500.0).perQuerySeconds("Q72"))
  }

  test("broadcast threshold above the dim table size speeds up broadcast-able joins") {
    val s = sim()
    val q = Workloads.tpcds.profiles.find(p => p.dimTableMB > 0 && p.shuffleGBPerGB > 0.05).get
    val below = goodConf.updated("spark.sql.autoBroadcastJoinThreshold", 1024) // 1 MB
    val above = goodConf.updated("spark.sql.autoBroadcastJoinThreshold", 8192) // 8 MB
    assert(s.expected(above, 300.0).perQuerySeconds(q.id) < s.expected(below, 300.0).perQuerySeconds(q.id))
  }

  test("feasibility repair (§5.12): memory scales down so requested executors always fit") {
    val s = sim()
    val greedy = goodConf.updated("spark.executor.memory", 32)
      .updated("spark.executor.memoryOverhead", 32768)
      .updated("spark.memory.offHeap.size", 32768)
      .updated("spark.executor.instances", 384)
    val r = s.resources(greedy)
    assert(r.execs == 384) // the request is granted...
    // ...but 384 × (32 + 32/2 + 32) GB ≫ 1536 GB, so per-executor memory
    // shrinks to the budget (overhead is a ceiling, accounted at 50%)
    val perExec = r.execMemGB + 0.5 * r.overheadGB + r.offHeapGB
    assert(perExec <= 1536.0 / 384 + 1e-9, s"perExec=$perExec")
    assert(r.execMemGB < 32.0)
    // and cores cannot exceed the cluster's 384 total
    assert(r.slots <= 384 + 1e-9)
  }

  test("feasible requests are granted unchanged") {
    val s = sim()
    val r = s.resources(goodConf) // 96 × (16+2+4) GB ≈ 2.1 TB? no: 96×22=2.1TB > 1536 — scale
    assert(r.execs == 96)
    assert(r.execMemGB <= 16.0)
    val modest = goodConf.updated("spark.executor.instances", 48)
      .updated("spark.executor.memory", 8).updated("spark.executor.memoryOverhead", 1024)
      .updated("spark.memory.offHeap.size", 1024)
    val rm = sim().resources(modest)
    assert(rm.execMemGB == 8.0 && rm.execs == 48) // 48 × ~10 GB fits 1536 GB
  }

  test("GC time rises with memory pressure and falls with off-heap relief") {
    val s = sim()
    val starved = goodConf.updated("spark.executor.memory", 4)
      .updated("spark.executor.instances", 48).updated("spark.memory.offHeap.enabled", 0.0)
    val relieved = starved.updated("spark.memory.offHeap.enabled", 1.0)
      .updated("spark.memory.offHeap.size", 16384)
    val gcStarved = s.expected(starved, 500.0).gcSeconds
    val gcGood = s.expected(goodConf, 500.0).gcSeconds
    val gcRelieved = s.expected(relieved, 500.0).gcSeconds
    assert(gcStarved > gcGood, s"starved=$gcStarved good=$gcGood")
    assert(gcRelieved < gcStarved, s"relieved=$gcRelieved starved=$gcStarved")
  }

  test("GC pressure grows with datasize under a fixed config (paper §5.8)") {
    val s = sim()
    val gcShare100 = s.expected(goodConf, 100.0).gcSeconds / s.expectedTotal(goodConf, 100.0)
    val gcShare500 = s.expected(goodConf, 500.0).gcSeconds / s.expectedTotal(goodConf, 500.0)
    assert(gcShare500 > gcShare100)
  }

  test("x86 cluster with Range B configs also runs sanely") {
    val x86Space = ConfigSpace.full(arm = false)
    val s = sim(c = ClusterProfile.x86)
    val rng = new Random(17)
    (0 until 10).foreach { _ =>
      val t = s.expectedTotal(x86Space.random(rng), 200.0)
      assert(t > 0 && t.isFinite)
    }
  }

  test("more executors reduce CPU-bound query time until the parallelism cap") {
    val s = sim(w = Workloads.hibenchJoin)
    val small = goodConf.updated("spark.executor.instances", 48).updated("spark.executor.cores", 2)
    val big = goodConf.updated("spark.executor.instances", 192).updated("spark.executor.cores", 2)
    assert(s.expectedTotal(big, 300.0) < s.expectedTotal(small, 300.0))
  }

  test("HiBench Scan is far less config-sensitive than HiBench Join") {
    val sScan = sim(w = Workloads.hibenchScan)
    val sJoin = sim(w = Workloads.hibenchJoin)
    val rng = new Random(19)
    val confs = (0 until 20).map(_ => armSpace.random(rng))
    val cvScan = repro.stats.Stats.cv(confs.map(c => sScan.expectedTotal(c, 300.0)))
    val cvJoin = repro.stats.Stats.cv(confs.map(c => sJoin.expectedTotal(c, 300.0)))
    assert(cvScan < cvJoin / 2, s"scan=$cvScan join=$cvJoin")
  }

  test("invalid datasize is rejected") {
    intercept[IllegalArgumentException] { sim().expectedTotal(goodConf, 0.0) }
  }

  test("an unknown query id in a subset is rejected") {
    intercept[NoSuchElementException] { sim().run(goodConf, 100.0, Some(Seq("Q72", "Q999"))) }
  }

  test("golden: runs, expected times and GC equal those recorded before the one-pass evaluation") {
    // SHA-256 of the raw bits of three consecutive runs (full application,
    // RQA subset, full again), the expected total, every expected per-query
    // time and the expected GC seconds, per (workload, cluster, datasize)
    val golden = Map(
      ("TPC-DS", "ARM-4node", 100.0) ->
        "b5db5e7c6a35403145c9fbd54f699b07b3dcbdcd2d71bc065bdc396ec101e04e",
      ("TPC-DS", "ARM-4node", 500.0) ->
        "1a9955e123fe063492e6a9093766afb6c8063ff7f06a836419214c6903cabd0e",
      ("TPC-DS", "x86-8node", 100.0) ->
        "900f2c3f5f1375dd4c052f8f7f674883d06334afca2f1f81c75be56ebb17890c",
      ("TPC-DS", "x86-8node", 500.0) ->
        "1d89f65f710ee4ee59c09aa543fb898865cf1fb0f66dee261c0fcd9211f9ad51",
      ("Join", "ARM-4node", 100.0) ->
        "25dbdbacdf408956b00bf8db39070498f193dee07418486381de04ba0d58477f",
      ("Join", "ARM-4node", 500.0) ->
        "be62f920acd928cb9d799e1f0f33cd79af14441a1b7cf2608645f45708f02b9e",
      ("Join", "x86-8node", 100.0) ->
        "5f7cb610d14d83d9de5ed7ab49729f6e5cb08350469f97503ea632a5ca88cefe",
      ("Join", "x86-8node", 500.0) ->
        "f092776d53e5af3aee0c16386de63d8aaafa3ad3588ec56fdfbab18982eb386d")
    val cases = for {
      w <- Seq(Workloads.tpcds, Workloads.hibenchJoin)
      c <- Seq(ClusterProfile.arm, ClusterProfile.x86)
      ds <- Seq(100.0, 500.0)
    } yield (w, c, ds)
    val got = cases.zipWithIndex.map { case ((w, c, ds), i) =>
      val s = sim(w, c, seed = 3L + i)
      val conf = ConfigSpace.full(c.armRanges).random(new Random(i))
      val rqa = if (w == Workloads.tpcds) Workloads.tpcdsCsq else w.queryIds
      val bits = Seq.newBuilder[Double]
      for (subset <- Seq(None, Some(rqa), None)) {
        val r = s.run(conf, ds, subset)
        bits ++= subset.getOrElse(w.queryIds).map(r.perQuerySeconds) += r.gcSeconds += r.totalSeconds
      }
      val e = s.expected(conf, ds)
      bits += s.expectedTotal(conf, ds)
      bits ++= w.queryIds.map(e.perQuerySeconds) += e.gcSeconds
      val md = java.security.MessageDigest.getInstance("SHA-256")
      bits.result().foreach(v => md.update(java.nio.ByteBuffer.allocate(8).putLong(java.lang.Double.doubleToRawLongBits(v)).array()))
      (w.name, c.name, ds) -> md.digest().map(b => f"$b%02x").mkString
    }.toMap
    assert(got == golden)
  }
}
