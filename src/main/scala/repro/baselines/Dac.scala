package repro.baselines

import java.util.stream.IntStream
import repro.core._
import repro.ml.{Ga, Gbrt}
import repro.stats.Rng

/** DAC (Yu, Bei, Qian — ASPLOS 2018) — datasize-aware high-dimensional
  * configuration auto-tuning via hierarchical performance models + search.
  *
  * Structure: collect a large random sample set on the real cluster, fit a
  * boosted-tree performance model over (configuration, datasize), search the
  * model with a genetic algorithm, then validate the top model-optima on the
  * cluster. The dominant cost is the model-building sample collection — the
  * original uses thousands of samples; we scale to `nSamples` full runs
  * (every run is the full application: DAC has no QCSA-like reduction).
  */
final class Dac(
    nSamples: Int = 240,
    gaCandidates: Int = 5,
    nTrees: Int = 120,
) extends Tuner {
  override def name: String = "DAC"

  override def tune(objective: TuningObjective, space: ConfigSpace, ds: Double, seed: Long): TuningResult = {
    val rng = Rng(seed)
    val log = new TrialLog(objective)

    // model-building samples (datasize recorded as a feature, per DAC)
    (0 until nSamples).foreach(_ => log.run(space.random(rng), ds))
    val xs = log.trials.map(t => space.encode(t.conf) :+ ds / 1000.0)
    val ys = log.trials.map(t => math.log(t.result.totalSeconds))
    val model = Gbrt.fit(xs, ys, nTrees = nTrees, maxDepth = 4)

    // GA over the model; several restarts give distinct candidates. Each
    // restart owns its generator and the model is read-only, so the restarts
    // run as a parallel stream on the caller's ForkJoinPool (the common pool
    // outside one), each writing its candidate to its restart's slot.
    val candidates = new Array[Array[Double]](gaCandidates)
    IntStream.range(0, gaCandidates).parallel().forEach { k =>
      candidates(k) = Ga.minimize(u => model.predict(u :+ ds / 1000.0), space.dim, Rng(seed * 31 + k), popSize = 40,
        generations = 50).best
    }
    // validate model-optima on the "cluster"; DAC's recommendation is the
    // best of the GA candidates (the model's output), per its protocol
    val validated = candidates.map(u => log.run(space.decode(u), ds))
    log.result(validated.minBy(_.result.totalSeconds))
  }
}
