package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterProfile, Workloads}

/** Fig 20 — tuning overhead as the input datasize grows (TPC-DS, ARM).
  * LOCAT adapts to datasize changes online (DAGP), so only the first size
  * pays the full procedure; the SOTA tuners re-tune from scratch at every
  * size and their overhead keeps growing with the data.
  */
class Fig20OverheadBench extends AnyFunSuite {

  test("Fig 20: LOCAT's overhead stays low as datasize grows; SOTA overhead climbs") {
    val c = ClusterProfile.arm
    val sizes = Workloads.datasizesGB
    val online = Bench.locatOnline("TPC-DS", c)
    println("== Fig 20: tuning overhead (hours) vs input datasize, TPC-DS ==")
    println(f"${"ds(GB)"}%8s ${"LOCAT(online)"}%14s " + Bench.sotaNames.map(t => f"$t%9s").mkString(" "))
    val rows = sizes.map { ds =>
      val locatH = online.perDsOptSeconds(ds) / 3600.0
      val sotaH = Bench.sotaNames.map(t => Bench.run(t, "TPC-DS", c, ds).optHours)
      println(f"${ds.toInt}%8d ${locatH}%14.2f " + sotaH.map(h => f"$h%9.2f").mkString(" "))
      (ds, locatH, sotaH)
    }

    // shape: continuations cost less than the initial tune even though each
    // RQA run is ~5x longer at 500 GB than at 100 GB; every SOTA tuner pays
    // more at every size, increasingly so at larger sizes
    val firstLocat = rows.head._2
    rows.tail.foreach { case (ds, locatH, _) =>
      assert(locatH < firstLocat, s"$ds GB: continuation $locatH h vs initial $firstLocat h")
    }
    rows.foreach { case (ds, locatH, sotaH) =>
      sotaH.zip(Bench.sotaNames).foreach { case (h, t) =>
        assert(h > locatH, s"$t cheaper than LOCAT at $ds GB")
      }
    }
    val sotaGrowth = rows.last._3.head / rows.head._3.head
    val locatGrowth = rows.last._2 / firstLocat
    assert(sotaGrowth > locatGrowth, "SOTA overhead must grow faster with datasize than LOCAT's")
  }
}
