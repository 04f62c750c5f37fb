package repro.core

import repro.stats.{Kpca, KpcaKernel, Stats}

/** Identifying Important Configuration Parameters (paper §3.3) — a hybrid of
  * feature selection (CPS) and feature extraction (CPE):
  *
  *  - **CPS**: Spearman Correlation Coefficient between each parameter's value
  *    and the application execution time over `N_IICP` samples; parameters
  *    with |SCC| < 0.2 (the standard poor-correlation boundary) are dropped.
  *  - **CPE**: Kernel PCA (Gaussian kernel — chosen by the paper's Fig 6
  *    experiment) over the CPS-kept parameters; the extracted components are
  *    the "new parameters" fed to DAGP.
  */
object Iicp {

  val SccThreshold = 0.2

  /** The fitted IICP pipeline: the subspace of CPS-kept parameters and the
    * KPCA feature extractor over its unit cube.
    */
  final case class Model(subspace: ConfigSpace, kpca: Kpca) {
    /** The CPS-kept parameter names, in the full space's order. */
    def keptParams: Seq[String] = subspace.names

    /** Map a full configuration to the extracted feature vector. */
    def features(conf: ConfigValues): Array[Double] =
      kpca.transform(subspace.encode(conf))

    /** Map a unit vector *of the subspace* to the extracted features. */
    def featuresOfSubspaceUnit(u: Array[Double]): Array[Double] =
      kpca.transform(u)

    def nFeatures: Int = kpca.nComponents
  }

  /** CPS: SCC of every parameter against execution time, descending |SCC|.
    *
    * Keeps every parameter clearing the |SCC| ≥ 0.2 boundary, and always at
    * least the five strongest — the samples come from BO iterations (not an
    * i.i.d. design), so a dominant parameter's SCC can be deflated once BO
    * has concentrated near its optimum; the top-5 floor keeps it tunable.
    */
  def cps(space: ConfigSpace, samples: Seq[(ConfigValues, Double)]): Seq[(String, Double)] = {
    require(samples.size >= 3, s"CPS needs >=3 samples, got ${samples.size}")
    val times = samples.map(_._2)
    val sccs = space.names.map { p =>
      p -> Stats.spearman(samples.map(_._1(p)), times)
    }
    val ranked = sccs.sortBy { case (_, s) => -math.abs(s) }
    val floor = math.min(5, ranked.size)
    ranked.zipWithIndex.collect {
      case ((p, s), i) if i < floor || math.abs(s) >= SccThreshold => (p, s)
    }
  }

  /** Full IICP: CPS then CPE. The model's subspace holds the CPS-dropped
    * parameters at their defaults.
    *
    * @param kernel KPCA kernel; defaults to Gaussian with the median-distance
    *               bandwidth over the CPS-kept subspace (the paper's choice)
    */
  def fit(space: ConfigSpace, samples: Seq[(ConfigValues, Double)],
          kernel: Option[KpcaKernel] = None): Model = {
    val keptNames = cps(space, samples).map(_._1)
    val sub = space.subspace(keptNames, space.defaults)
    val xs = samples.map { case (c, _) => sub.encode(c) }
    val k = kernel.getOrElse(KpcaKernel.Gaussian(math.max(KpcaKernel.medianSigma(xs), 1e-6)))
    // CPE extracts roughly a third of the CPS-kept parameters (paper Fig 10),
    // fewer if they already cover 90% of the spectrum.
    val maxComponents = math.max(3, math.ceil(keptNames.size / 3.0).toInt)
    val kpca = Kpca.fit(xs, k, 0.9, maxComponents)
    Model(sub, kpca)
  }
}
