package repro.perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession

import repro.core.{Apmi, Embeddings, ParallelPane, SvdCcd}
import repro.spark.SparkPane

/** Wall-clock spans, each with the process CPU time it used, recorded
  * around calls into the program's layers. Spans nest; each remembers the
  * span that was open when it started.
  */
final class Spans {
  final case class Span(name: String, parent: String, wallS: Double, cpuS: Double)

  private val done = ArrayBuffer.empty[Span]
  private var open = List.empty[String]

  def apply[A](name: String)(body: => A): A = {
    val parent = open.headOption.getOrElse("")
    open = name :: open
    val c0 = Jvm.cpuNanos
    val t0 = System.nanoTime()
    try body
    finally {
      done += Span(name, parent, (System.nanoTime() - t0) / 1e9, (Jvm.cpuNanos - c0) / 1e9)
      open = open.tail
    }
  }

  def all(name: String): Seq[Double] = done.filter(_.name == name).map(_.wallS).toSeq
  def wall(name: String): Double = all(name).sum
  def cpu(name: String): Double = done.filter(_.name == name).map(_.cpuS).sum
  def spans: Seq[Span] = done.toSeq
}

/** One traced run: the embedding and its quality, the traced wall times, the per-layer
  * metrics it measured, and the problems the decomposition checks found.
  */
final case class Traced(emb: Embeddings, auc: Double, ap: Double, embedS: Double, totalS: Double,
                        metrics: Map[String, Double], spans: Seq[Spans#Span], problems: Seq[String])

/** Runs a backend's embed as the sequence of public calls it is made of,
  * timing each layer from outside:
  *
  *  - single:  Apmi.run, SvdCcd.greedyInit, then per sweep nodeSweep and attrSweep
  *  - threads: ParallelPane.papmi, smGreedyInit, then per sweep psvdccd(iters = 1, init = st)
  *  - spark:   SparkPane.embed whole, under a listener; SparkPane.papmi is
  *             then timed on its own, outside the traced embed
  *
  * The graph's lazy matrices are forced first, in their own span. The
  * objective ‖Sf‖² + ‖Sb‖² after init and after each sweep is computed
  * between spans and left out of the traced times.
  */
object Trace {

  def run(w: Workload, in: Inputs, spark: SparkSession): Traced = {
    val sp = new Spans
    val g = in.freshGraph
    val cfg = w.paneConfig
    val half = cfg.k / 2
    val m = mutable.LinkedHashMap.empty[String, Double]
    val objectives = ArrayBuffer.empty[Double]
    var untimedNs = 0L
    def recordObjective(st: SvdCcd.State): Unit = {
      val t = System.nanoTime()
      objectives += sumSq(st.sf.data) + sumSq(st.sb.data)
      untimedNs += System.nanoTime() - t
    }

    Jvm.resetPeakHeap()
    val (gcCount0, gcMs0) = Jvm.gc
    val cpu0 = Jvm.cpuNanos
    val t0 = System.nanoTime()
    sp("graph") { g.walkMatrix; g.attrRowNorm; g.attrColNorm }
    val emb = w.backend match {
      case "single" =>
        val aff = sp("core.apmi") { Apmi.run(g, cfg.alpha, cfg.t) }
        val st = sp("core.init") { SvdCcd.greedyInit(aff.fPrime, aff.bPrime, cfg.k, cfg.refineIters, cfg.seed) }
        recordObjective(st)
        for (_ <- 0 until cfg.refineIters) {
          sp("core.ccd") {
            sp("core.ccd.x") { SvdCcd.nodeSweep(st, 0, g.n) }
            sp("core.ccd.y") { SvdCcd.attrSweep(st, 0, g.d) }
          }
          recordObjective(st)
        }
        Embeddings(st.xf, st.xb, st.y)
      case "threads" =>
        val (f, b) = sp("core.apmi") {
          ParallelPane.papmi(g.walkMatrix, g.attrRowNorm, g.attrColNorm, cfg.alpha, cfg.t, w.nb)
        }
        val st = sp("core.init") { ParallelPane.smGreedyInit(f, b, cfg.k, cfg.refineIters, w.nb, cfg.seed) }
        recordObjective(st)
        for (_ <- 0 until cfg.refineIters) {
          sp("core.ccd") { ParallelPane.psvdccd(f, b, cfg.k, 1, w.nb, init = st, seed = cfg.seed) }
          recordObjective(st)
        }
        Embeddings(st.xf, st.xb, st.y)
      case "spark" =>
        val stages = SparkStages.attach(spark)
        val startMs = System.currentTimeMillis()
        val e = sp("spark.embed") { SparkPane.embed(g, cfg, Some(w.nb))(spark) }
        val endMs = System.currentTimeMillis()
        val t = System.nanoTime()
        m ++= stages.finish(startMs, endMs, sp.wall("spark.embed"))
        untimedNs += System.nanoTime() - t
        e
    }
    val embedS = (System.nanoTime() - t0 - untimedNs) / 1e9
    val (auc, ap) = sp("eval") { Backends.score(w, emb, in) }
    val totalS = (System.nanoTime() - t0 - untimedNs) / 1e9
    val cpuS = (Jvm.cpuNanos - cpu0) / 1e9
    val (gcCount1, gcMs1) = Jvm.gc
    val peakHeapMb = Jvm.peakHeapBytes / (1024.0 * 1024.0)

    if (w.backend == "spark") sp("core.apmi") {
      SparkPane.papmi(g, cfg.alpha, cfg.t, w.nb, spark).foreach(_ => ())
    }

    val n = g.n
    val d = g.d
    val nnzP = g.walkMatrix.nnz
    m("graph.build_s") = sp.wall("graph")
    m("graph.nnz_p") = nnzP.toDouble
    val apmi = Kernels.apmi(nnzP, n, d, cfg.t)
    m("core.apmi.s") = sp.wall("core.apmi")
    m("core.apmi.cpu_s") = sp.cpu("core.apmi")
    m("core.apmi.t") = cfg.t.toDouble
    m("core.apmi.trunc_bound") = math.pow(1 - cfg.alpha, cfg.t)
    m("core.apmi.flops") = apmi.flops
    m("core.apmi.bytes") = apmi.bytes
    m("core.apmi.ops_per_byte") = apmi.opsPerByte

    val problems = ArrayBuffer.empty[String]
    if (w.backend != "spark") {
      val init =
        if (w.backend == "single") Kernels.greedyInit(n, d, half, cfg.refineIters)
        else Kernels.smGreedyInit(ParallelPane.ranges(n, w.nb).map { case (a, b) => b - a }, d, half, cfg.refineIters)
      m("core.init.s") = sp.wall("core.init")
      m("core.init.cpu_s") = sp.cpu("core.init")
      m("core.init.flops") = init.flops
      m("core.init.bytes") = init.bytes
      m("core.init.ops_per_byte") = init.opsPerByte
      val sweep = Kernels.ccdSweep(n, d, half)
      val ccdS = sp.wall("core.ccd")
      m("core.ccd.s") = ccdS
      m("core.ccd.sweep_s") = median(sp.all("core.ccd"))
      if (w.backend == "single") {
        m("core.ccd.x_s") = median(sp.all("core.ccd.x"))
        m("core.ccd.y_s") = median(sp.all("core.ccd.y"))
      }
      m("core.ccd.cpu_s") = sp.cpu("core.ccd")
      m("core.ccd.par_eff") = sp.cpu("core.ccd") / (ccdS * w.nb)
      m("core.ccd.sweeps") = cfg.refineIters.toDouble
      m("core.ccd.flops_per_sweep") = sweep.flops
      m("core.ccd.bytes_per_sweep") = sweep.bytes
      m("core.ccd.ops_per_byte") = sweep.opsPerByte
      m("core.ccd.obj_init") = objectives.head
      m("core.ccd.obj_final") = objectives.last
      m("core.ccd.obj_drop_rel") = (objectives.head - objectives.last) / objectives.head
      objectives.zip(objectives.tail).zipWithIndex.foreach { case ((a, b), i) =>
        if (b > a * (1 + 1e-9)) problems += f"objective rose in sweep ${i + 1}: $a%.6e -> $b%.6e"
      }
    }
    m("eval.score_s") = sp.wall("eval")
    m("eval.pairs") = in.pairs.length.toDouble
    m("eval.pairs_per_s") = in.pairs.length / sp.wall("eval")
    m("jvm.cpu_s") = cpuS
    m("jvm.gc_s") = (gcMs1 - gcMs0) / 1e3
    m("jvm.gc_count") = (gcCount1 - gcCount0).toDouble
    m("jvm.peak_heap_mb") = peakHeapMb
    val layers = if (w.backend == "spark") Seq("graph", "spark.embed") else Seq("graph", "core.apmi", "core.init", "core.ccd")
    val covered = layers.map(sp.wall).sum
    m("trace.embed_s") = embedS
    m("trace.span_cover") = covered / embedS
    if (w.backend != "spark" && covered < 0.95 * embedS)
      problems += f"layer spans cover ${covered / embedS}%.3f of the traced embed_s, under 0.95"
    Traced(emb, auc, ap, embedS, totalS, m.toMap, sp.spans, problems.toSeq)
  }

  private def sumSq(a: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { s += a(i) * a(i); i += 1 }
    s
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}
