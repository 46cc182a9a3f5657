package repro.perfbench

import java.io.File

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

/** The PANE benchmark, one workload per process:
  *
  * {{{ --workload NAME --seed N --seconds S --trace 0|1 --root DIR }}}
  *
  * Set-up starts the Spark session (Spark workload only), generates the
  * inputs from the seed three times, and warms the JIT (and Spark) by
  * running the backend on a scaled-down graph or on the inputs themselves,
  * as often as the workload asks. Then it runs the backend for S seconds. With
  * `--trace 0` every run is untraced and the end-to-end metrics are
  * printed. With `--trace 1` traced and untraced runs alternate and the
  * per-layer metrics are printed. Every run's output is checked. The last line of stdout is the
  * JSON summary; the exit code is 0 only if every run passed.
  */
object Main {

  private final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, root: File)

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(get("workload"), get("seed").toLong, get("seconds").toDouble, get("trace") == "1",
      new File(kv.getOrElse("root", ".")))
  }

  def main(argv: Array[String]): Unit = {
    val entryNs = System.nanoTime()
    val entryUptimeS = Jvm.uptimeS
    def sinceStartS = entryUptimeS + (System.nanoTime() - entryNs) / 1e9

    val a = parse(argv)
    val (endToEnd, perLayer) = Workloads.metrics(new File(a.root, "BENCHMARK.json"))
    val w = Workloads.load(new File(a.root, "perfbench/workloads.json")).find(_.name == a.workload)
      .getOrElse(throw new IllegalArgumentException(s"unknown workload ${a.workload}"))
    val bounds = endToEnd.map(m => m.name -> m.bound).toMap
    val spark = if (w.backend == "spark") session(w) else null
    val passed =
      try {
        val (metrics, attempted, failed, problems) = run(a, w, bounds, spark, sinceStartS)
        val declared = if (a.trace) perLayer else endToEnd
        report(a, w, declared, metrics, attempted, failed, problems)
      } finally if (spark != null) spark.stop()
    sys.exit(if (passed) 0 else 1)
  }

  /** Returns (metrics, runs attempted, runs failed, problems found). */
  private def run(a: Args, w: Workload, bounds: Map[String, Double], spark: SparkSession,
                  sinceStartS: => Double): (Map[String, Double], Int, Int, Seq[String]) = {
    val reps = (1 to 3).map(_ => timed(w.inputs(a.seed)))
    val in = reps.last._1
    val inputS = Trace.median(reps.map(_._2))
    val (_, warmupS) = timed {
      val wi = w.warmupInputs(a.seed, in)
      for (_ <- 1 to w.warmupRuns) Backends.score(w, Backends.embed(w, wi, spark), wi)
    }
    val setupS = sinceStartS - reps.map(_._2).sum + inputS
    println(s"perfbench ${w.name} seed=${a.seed} trace=${if (a.trace) 1 else 0}: ${w.backend} nb=${w.nb} " +
      s"k=${w.k} ${w.graph.copy(seed = a.seed)} m=${in.train.m} pairs=${in.pairs.length}")

    var attempted = 0
    var failed = 0
    val problems = ArrayBuffer.empty[String]
    def attempt[A](body: => (A, Seq[String])): Option[A] = {
      attempted += 1
      // Each run starts on a collected heap, so the garbage of the run
      // before does not set off a collection inside this one.
      System.gc()
      try {
        val (r, p) = body
        if (p.isEmpty) Some(r) else { failed += 1; problems ++= p; None }
      } catch { case NonFatal(e) => failed += 1; problems += s"run threw $e"; None }
    }
    def checked(emb: repro.core.Embeddings, auc: Double, ap: Double): Seq[String] =
      Check.shape(w, in, emb) ++ Check.quality(w, a.seed, auc, ap, bounds)

    val untraced = ArrayBuffer.empty[Outcome]
    val traced = ArrayBuffer.empty[Traced]
    def untracedRun(): Unit = attempt {
      val o = Backends.timed(w, in, spark)
      (o, checked(o.emb, o.auc, o.ap) ++
        untraced.headOption.toSeq.flatMap(u => Check.same("repeated run", u.emb, o.emb, Check.relTol(w))))
    }.foreach(untraced += _)
    def tracedRun(): Unit = attempt {
      val t = Trace.run(w, in, spark)
      (t, checked(t.emb, t.auc, t.ap) ++ t.problems ++
        untraced.headOption.toSeq.flatMap(u => Check.same("traced decomposition", u.emb, t.emb, Check.relTol(w))))
    }.foreach(traced += _)
    // A trace session starts with one untraced run, the reference for the
    // decomposition check, then alternates traced and untraced runs so the
    // overhead compares runs made under the same conditions.
    val start = System.nanoTime()
    if (!a.trace) repeatFor(start, a.seconds)(untracedRun())
    else {
      untracedRun()
      repeatFor(start, a.seconds) { tracedRun(); untracedRun() }
    }
    println(untraced.map(o => f"${o.totalS}%.3f").mkString("untraced total_s per run: ", " ", ""))
    if (traced.nonEmpty) println(traced.map(t => f"${t.totalS}%.3f").mkString("traced total_s per run: ", " ", ""))
    traced.lastOption.foreach { t =>
      println("spans of the last traced run (wall s, cpu s):")
      t.spans.foreach(s => println(f"  ${s.name}%-14s in ${if (s.parent.isEmpty) "-" else s.parent}%-10s ${s.wallS}%9.4f ${s.cpuS}%9.4f"))
    }

    val metrics =
      if (untraced.isEmpty || (a.trace && traced.isEmpty)) Map.empty[String, Double]
      else if (!a.trace) Map(
        "total_s" -> Trace.median(untraced.map(_.totalS).toSeq),
        "embed_s" -> Trace.median(untraced.map(_.embedS).toSeq),
        "setup_s" -> setupS,
        "auc" -> untraced.head.auc,
        "ap" -> untraced.head.ap,
        "ok_frac" -> (attempted - failed).toDouble / attempted)
      else {
        val names = traced.flatMap(_.metrics.keys).distinct
        names.map(k => k -> Trace.median(traced.map(_.metrics(k)).toSeq)).toMap ++ Map(
          "trace.overhead_s" -> (Trace.median(traced.map(_.totalS).toSeq) -
            Trace.median(untraced.map(_.totalS).toSeq.drop(if (untraced.size > 1) 1 else 0))),
          "setup.input_s" -> inputS,
          "setup.warmup_s" -> warmupS)
      }
    (metrics, attempted, failed, problems.toSeq)
  }

  /** Prints each declared metric with its unit, then the JSON summary line.
    * A declared metric this workload's layers do not produce reads 0.
    */
  private def report(a: Args, w: Workload, declared: Seq[Workloads.Metric], metrics: Map[String, Double],
                     attempted: Int, failed: Int, problems: Seq[String]): Boolean = {
    val undeclared = metrics.keySet -- declared.map(_.name)
    val bad = problems ++ undeclared.toSeq.sorted.map(k => s"metric $k is not declared in BENCHMARK.json") ++
      metrics.collect { case (k, v) if !java.lang.Double.isFinite(v) => s"metric $k is $v" } ++
      (if (metrics.isEmpty) Seq("no metric was measured: no run of the needed kind passed") else Nil)
    bad.distinct.foreach(p => Console.err.println(s"perfbench ${w.name} seed=${a.seed}: FAILED $p"))
    val shown = if (metrics.isEmpty) Nil else declared.map(m => (m, metrics.getOrElse(m.name, 0.0)))
    println(s"perfbench ${w.name}: $attempted runs, $failed failed")
    shown.foreach { case (m, v) => println(f"  ${m.name}%-26s $v%16.6f ${m.unit}") }
    val correct = bad.isEmpty
    val json = shown.filter(x => java.lang.Double.isFinite(x._2)).map { case (m, v) =>
      s""""${m.name}": {"value": $v, "unit": "${m.unit}"}"""
    }.mkString(", ")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$json}}""")
    correct
  }

  private def session(w: Workload): SparkSession = {
    val tmp = new File(sys.props("java.io.tmpdir")).getAbsoluteFile
    SparkSession.builder
      .master(s"local[${w.nb}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", new File(tmp, "warehouse").getPath)
      .getOrCreate()
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Runs `body` at least once, and again until `seconds` have passed since `start`. */
  private def repeatFor(start: Long, seconds: Double)(body: => Unit): Unit = {
    val deadline = start + (seconds * 1e9).toLong
    do body while (System.nanoTime() < deadline)
  }
}
