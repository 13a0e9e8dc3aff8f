package repro.exp

/** Small dataset specs shared by the exp- and jobs-layer suites; each suite
  * builds the ones it needs and holds them itself.
  */
object TinySpecs {
  val gender = Datasets.Spec("tiny-gender", 400, 2400, Datasets.Gender(0.6), seed = 1, nPairs = 1)
  val zipf   = Datasets.Spec("tiny-zipf", 500, 4000, Datasets.ZipfLocations(20, 1.2), seed = 2,
                             nPairs = 2, minPairCount = 20)
  val deg    = Datasets.Spec("tiny-deg", 500, 3000, Datasets.DegreeBuckets, seed = 3,
                             nPairs = 2, minPairCount = 10)
}
