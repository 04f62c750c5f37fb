package repro.core

import org.scalatest.funsuite.AnyFunSuite

class LocatSpec extends AnyFunSuite {

  private def freshObjective(seed: Long) = TestObjectives.synthetic(seed)

  test("LOCAT on the synthetic objective finds a near-optimal config") {
    val obj = freshObjective(1)
    val r = new Locat(nQcsa = 15, nIicp = 12, minIter = 6, maxIter = 15)
      .tune(obj, obj.space, datasizeGB = 100.0, seed = 1)
    // optimum: knob.one=100 (u=1), knob.two=0 (u=0) → expected total = (5+5+10)*1.1 = 22
    val exp = obj.expected(r.bestConf, 100.0).values.sum
    assert(exp < 26.0, s"expected-time at best conf = $exp (optimum 22)")
  }

  test("LOCAT removes the insensitive query from the RQA") {
    val obj = freshObjective(2)
    val session = new LocatSession(obj, obj.space, seed = 2, nQcsa = 15, nIicp = 12,
      minIter = 5, maxIter = 10)
    session.tuneInitial(100.0)
    assert(!session.qcsa.sensitive.contains("insens"))
    assert(session.qcsa.sensitive.toSet.subsetOf(Set("sens1", "sens2")))
  }

  test("LOCAT's IICP keeps the two real knobs") {
    val obj = freshObjective(3)
    val session = new LocatSession(obj, obj.space, seed = 3, nQcsa = 15, nIicp = 15,
      minIter = 5, maxIter = 10)
    session.tuneInitial(100.0)
    assert(session.iicp.keptParams.contains("knob.one"))
    assert(session.iicp.keptParams.contains("knob.two"))
  }

  test("phase-2 trials execute only the RQA (cheaper than full runs)") {
    val obj = freshObjective(4)
    val session = new LocatSession(obj, obj.space, seed = 4, nQcsa = 15, nIicp = 12,
      minIter = 5, maxIter = 10)
    val r = session.tuneInitial(100.0)
    val phase2 = r.trials.slice(15, r.trials.size - 1) // after the QCSA runs, before the verify run
    assert(phase2.nonEmpty)
    // full app runs all 3 queries; RQA runs at most 2
    assert(phase2.forall(_.result.perQuerySeconds.keySet.size < 3))
  }

  test("optimizationSeconds equals the sum of trial costs") {
    val obj = freshObjective(5)
    val r = new Locat(nQcsa = 15, nIicp = 12, minIter = 5, maxIter = 10)
      .tune(obj, obj.space, 100.0, seed = 5)
    assert(r.optimizationSeconds == r.trials.map(_.costSeconds).sum)
  }

  test("TuningResult rejects a recommended trial that is not one of its trials") {
    val obj = freshObjective(12)
    val log = new TrialLog(obj)
    val a = log.run(obj.space.defaults, 100.0)
    log.run(obj.space.defaults, 200.0)
    assert(log.result(a).best eq a)
    val outsider = Trial(a.conf, 300.0, obj.run(a.conf, 300.0))
    intercept[IllegalArgumentException](TuningResult(log.trials, outsider))
    // an equal copy is still not the trial that ran
    intercept[IllegalArgumentException](TuningResult(log.trials, a.copy()))
  }

  test("stop condition: phase 2 runs at least minIter and at most maxIter RQA iterations") {
    val obj = freshObjective(6)
    val session = new LocatSession(obj, obj.space, seed = 6, nQcsa = 15, nIicp = 12,
      minIter = 6, maxIter = 12)
    val r = session.tuneInitial(100.0)
    val nPhase2 = r.trials.count(_.result.perQuerySeconds.keySet != obj.queries.toSet)
    assert(nPhase2 >= 6 && nPhase2 <= 12, s"phase-2 iterations: $nPhase2")
  }

  test("tuneNext at a new datasize is cheaper than the initial tuning") {
    val obj = freshObjective(7)
    val session = new LocatSession(obj, obj.space, seed = 7, nQcsa = 15, nIicp = 12,
      minIter = 6, maxIter = 12, nextMinIter = 3, nextMaxIter = 8)
    val first = session.tuneInitial(100.0)
    val next = session.tuneNext(400.0)
    assert(next.optimizationSeconds < first.optimizationSeconds * 0.5,
      s"next=${next.optimizationSeconds} first=${first.optimizationSeconds}")
    // and the result at the new size is still good
    val exp = obj.expected(next.bestConf, 400.0).values.sum
    assert(exp < 31.0, s"expected at 400GB: $exp (optimum 28)")
  }

  test("tuneNext reports only its own trials, whose costs sum to its optimizationSeconds") {
    val obj = freshObjective(10)
    val session = new LocatSession(obj, obj.space, seed = 10, nQcsa = 12, nIicp = 10,
      minIter = 4, maxIter = 6, nextMinIter = 2, nextMaxIter = 4)
    val first = session.tuneInitial(100.0)
    val next = session.tuneNext(300.0)
    assert(next.trials.forall(_.datasizeGB == 300.0))
    assert(next.trials.size >= 3 && next.trials.size <= 5) // 2–4 RQA iterations + the verify run
    assert(next.trials.exists(_.conf == next.bestConf))
    val sum = next.trials.map(_.costSeconds).sum
    assert(sum == next.optimizationSeconds, s"trials sum to $sum, reported ${next.optimizationSeconds}")
    assert(math.abs(first.optimizationSeconds + next.optimizationSeconds - session.cumulativeOptimizationSeconds) < 1e-9)
  }

  test("golden: a fixed-seed session returns the configurations and costs recorded before batched EI scoring") {
    val obj = freshObjective(21)
    val session = new LocatSession(obj, obj.space, seed = 21, nQcsa = 12, nIicp = 10,
      minIter = 4, maxIter = 6, nextMinIter = 2, nextMaxIter = 4)
    val first = session.tuneInitial(100.0)
    val next = session.tuneNext(300.0)
    assert(first.bestConf.values == Map("knob.one" -> 99.0, "knob.two" -> 0.09046911820000547, "noise.a" -> 8.0,
      "noise.b" -> 0.8302267814250033, "noise.c" -> 0.0, "noise.d" -> 186.0))
    assert(first.optimizationSeconds == 502.7355580288374)
    assert(first.bestTimeSeconds == 22.37517780500486)
    assert(next.bestConf.values == Map("knob.one" -> 78.0, "knob.two" -> 0.28773568679268835, "noise.a" -> 2.0,
      "noise.b" -> 0.5, "noise.c" -> 1.0, "noise.d" -> 105.0))
    assert(next.optimizationSeconds == 77.60951117857002)
    assert(next.bestTimeSeconds == 34.06043988930186)
    assert(session.cumulativeOptimizationSeconds == 580.3450692074074)
  }

  test("golden: a session whose RQA window passes 32 points keeps its recorded configuration and costs") {
    // 15 full runs + 20 RQA iterations: the last RQA steps' MH chains run prefetched
    val obj = freshObjective(26)
    val r = new LocatSession(obj, obj.space, seed = 26, nQcsa = 15, nIicp = 12, minIter = 20, maxIter = 20)
      .tuneInitial(100.0)
    assert(r.bestConf.values == Map("knob.one" -> 100.0, "knob.two" -> 0.002544141787339499, "noise.a" -> 9.0,
      "noise.b" -> 0.4432824226680042, "noise.c" -> 0.0, "noise.d" -> 179.0))
    assert(r.trials.map(_.costSeconds) == Seq(50.23021322386306, 23.882111492437993, 89.59648044806137,
      23.108031224038463, 23.40677584004144, 23.448740786337645, 23.116198995228753, 22.405593566451095,
      21.804215550504402, 22.01635162168936, 23.603383405283047, 22.34136569999493, 22.134612027071675,
      22.10733895972063, 26.270389867664584, 15.659451840588627, 18.58595753857435, 12.776068204629414,
      18.682884644413416, 13.316894812146877, 11.186959423790645, 11.381269562298336, 13.716153476190101,
      13.011416551939739, 12.875920824464451, 11.955716388412565, 12.191306000446428, 14.154028585905387,
      12.236649889957144, 25.9457426195272, 12.342898845748575, 16.631437175507678, 16.473819353688864,
      12.842373346055908, 13.30666156894649, 22.086169166934344))
    assert(r.optimizationSeconds == 750.8315825285551)
    assert(r.bestTimeSeconds == 22.086169166934344)
  }

  test("tuneInitial can only run once; tuneNext requires tuneInitial") {
    val obj = freshObjective(8)
    val s1 = new LocatSession(obj, obj.space, seed = 8, nQcsa = 15, nIicp = 12, minIter = 3, maxIter = 5)
    intercept[IllegalStateException] { s1.tuneNext(100.0) }
    s1.tuneInitial(100.0)
    intercept[IllegalStateException] { s1.tuneInitial(200.0) }
  }

  test("iicp says whether tuneInitial has not run or IICP is off") {
    val obj = freshObjective(11)
    val on = new LocatSession(obj, obj.space, seed = 11, nQcsa = 12, nIicp = 10, minIter = 3, maxIter = 4)
    assert(intercept[IllegalStateException](on.iicp).getMessage == "run tuneInitial first")
    val off = new LocatSession(obj, obj.space, seed = 11, nQcsa = 12, nIicp = 10, minIter = 3, maxIter = 4,
      useIicp = false)
    off.tuneInitial(100.0)
    assert(off.qcsa.sensitive.nonEmpty)
    assert(intercept[IllegalStateException](off.iicp).getMessage == "IICP is off in this session")
  }

  test("LOCAT beats random search with the same execution budget") {
    val objL = freshObjective(9)
    val rL = new Locat(nQcsa = 15, nIicp = 12, minIter = 6, maxIter = 15)
      .tune(objL, objL.space, 100.0, seed = 9)
    val budget = rL.trials.size
    val objR = freshObjective(9)
    val rR = new repro.baselines.RandomSearch(budget).tune(objR, objR.space, 100.0, seed = 9)
    val expL = objL.expected(rL.bestConf, 100.0).values.sum
    val expR = objR.expected(rR.bestConf, 100.0).values.sum
    assert(expL <= expR + 0.5, s"locat=$expL random=$expR")
  }
}
