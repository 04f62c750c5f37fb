package repro

import repro.SparkSpec

class SynthDataSpec extends SparkSpec {

  test("lineitem row count scales with sf and columns are complete") {
    val df = SynthData.lineitem(spark, 0.001)
    assert(df.count() == 6000)
    assert(df.columns.toSet == Set("l_orderkey", "l_partkey", "l_linenumber", "l_quantity",
      "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipdate"))
  }

  test("generators are deterministic in (sf, seed)") {
    val a = SynthData.orders(spark, 0.001).collect().map(_.toString).sorted
    val b = SynthData.orders(spark, 0.001).collect().map(_.toString).sorted
    assert(a.sameElements(b))
  }

  test("foreign keys land inside the referenced key space") {
    import org.apache.spark.sql.functions._
    val sf = 0.002
    val li = SynthData.lineitem(spark, sf)
    val maxOrder = li.agg(max("l_orderkey")).head().getLong(0)
    assert(maxOrder <= 3000) // orders at sf=0.002
    val uv = SynthData.uservisits(spark, sf)
    val r = SynthData.rankings(spark, sf)
    val dangling = uv.join(r, uv("desturl") === r("pageurl"), "left_anti").count()
    assert(dangling == 0, s"$dangling uservisits rows reference no ranking")
  }

  test("rankings/uservisits have the HiBench columns") {
    assert(SynthData.rankings(spark, 0.001).columns.toSet == Set("pageurl", "pagerank", "avgduration"))
    assert(SynthData.uservisits(spark, 0.001).columns.toSet ==
      Set("sourceip", "desturl", "visitdate", "adrevenue"))
  }
}
