package repro.spark

import org.apache.spark.sql.SparkSession
import repro.{Fixtures, SparkSpec}
import repro.core.{Apmi, Pane, PaneConfig, ParallelPane, SvdCcd}
import repro.eval.Tasks

class SparkPaneSpec extends SparkSpec {

  private implicit lazy val ss: SparkSession = spark
  private lazy val g = Fixtures.mid
  private val alpha = 0.5
  private val t = 5
  private val k = 16

  test("distributed PAPMI equals single-thread APMI (Lemma 4.1 on partitions)") {
    // figure1NoAttrs has attribute-less nodes: the SPMI zero-sum branch.
    for (gr <- Seq(g, Fixtures.figure1NoAttrs)) {
      val single = Apmi.run(gr, alpha, t)
      for (nb <- Seq(4, gr.d + 1)) {
        val aff = SparkPane.papmi(gr, alpha, t, nb, spark)
        val (f, b) = SparkPane.collectAffinity(aff, gr.n, gr.d)
        assert((f - single.fPrime).maxAbs == 0.0, s"F' mismatch on ${gr.name} at nb=$nb")
        assert((b - single.bPrime).maxAbs == 0.0, s"B' mismatch on ${gr.name} at nb=$nb")
      }
    }
  }

  test("distributed PAPMI covers all n nodes including attribute-poor ones") {
    val gd = Fixtures.figure1NoAttrs
    val aff = SparkPane.papmi(gd, 0.15, 10, nb = 2, spark)
    assert(aff.count() == gd.n)
  }

  test("distributed embed matches the thread-pool ParallelPane closely") {
    val nb = 4
    for (ccdIters <- Seq(None, Some(1))) {
      val cfg = PaneConfig(k = k, alpha = alpha, eps = 0.015, ccdIters = ccdIters)
      val local = ParallelPane.embed(g, cfg, nb)
      val dist = SparkPane.embed(g, cfg, Some(nb))
      // Same kernels, block structure and seeds; only fp summation order
      // differs (Spark's Y-phase aggregates and per-row init).
      for ((name, a, b) <- Seq(("Xf", local.xf, dist.xf), ("Xb", local.xb, dist.xb), ("Y", local.y, dist.y)))
        assert((a - b).maxAbs <= 1e-9 * a.maxAbs, s"$name differs at ccdIters=$ccdIters")
      val aff = Apmi.run(g, cfg.alpha, cfg.t)
      val ol = SvdCcd.objective(aff.fPrime, aff.bPrime, local)
      val od = SvdCcd.objective(aff.fPrime, aff.bPrime, dist)
      assert(math.abs(ol - od) / ol < 0.02, s"objectives differ: local $ol vs dist $od")
    }
  }

  test("distributed embed quality: attribute inference on par with single-thread") {
    val cfg = PaneConfig(k = k)
    val (gTrain, pairs) = Tasks.attributeInference(g, seed = 30L)
    val single = Pane.embed(gTrain, cfg)
    val dist = SparkPane.embed(gTrain, cfg, Some(4))
    val (aucS, _) = Tasks.evaluate(pairs, Pane.attrScore(single, _, _))
    val (aucD, _) = Tasks.evaluate(pairs, Pane.attrScore(dist, _, _))
    assert(aucD > aucS - 0.03, s"distributed AUC $aucD vs single $aucS")
  }

  test("distributed embed returns well-shaped finite embeddings") {
    val e = SparkPane.embed(Fixtures.tiny, PaneConfig(k = 8), Some(2))
    assert(e.xf.rows == Fixtures.tiny.n && e.xf.cols == 4)
    assert(e.y.rows == Fixtures.tiny.d && e.y.cols == 4)
    assert(e.xf.data.forall(java.lang.Double.isFinite))
    assert(e.xb.data.forall(java.lang.Double.isFinite))
    assert(e.y.data.forall(java.lang.Double.isFinite))
  }

  test("distributed embed is deterministic for fixed nb") {
    val a = SparkPane.embed(Fixtures.tiny, PaneConfig(k = 8), Some(2))
    val b = SparkPane.embed(Fixtures.tiny, PaneConfig(k = 8), Some(2))
    assert((a.y - b.y).maxAbs < 1e-12)
    assert((a.xf - b.xf).maxAbs < 1e-12)
  }
}
