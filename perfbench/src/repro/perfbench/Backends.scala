package repro.perfbench

import org.apache.spark.sql.SparkSession

import repro.core.{Embeddings, Pane, ParallelPane}
import repro.eval.Tasks
import repro.spark.SparkPane

/** One untraced run: the embedding, its quality, and its two wall times. */
final case class Outcome(emb: Embeddings, auc: Double, ap: Double, embedS: Double, totalS: Double)

/** The three PANE backends, called exactly as a user of the library would. */
object Backends {

  def embed(w: Workload, in: Inputs, spark: SparkSession): Embeddings = {
    val g = in.freshGraph
    w.backend match {
      case "single"  => Pane.embed(g, w.paneConfig)
      case "threads" => ParallelPane.embed(g, w.paneConfig, w.nb)
      case "spark"   => SparkPane.embed(g, w.paneConfig, Some(w.nb))(spark)
    }
  }

  /** (AUC, AP) of the test pairs, scored as Tables 4 and 5 score them. */
  def score(w: Workload, e: Embeddings, in: Inputs): (Double, Double) =
    if (w.task == "attr") Tasks.evaluate(in.pairs, Pane.attrScore(e, _, _))
    else {
      val sc = new Pane.LinkScorer(e)
      Tasks.evaluate(in.pairs, if (in.train.directed) sc.directed else sc.undirected)
    }

  /** embed_s covers the backend's embed call, graph build included;
    * total_s adds scoring.
    */
  def timed(w: Workload, in: Inputs, spark: SparkSession): Outcome = {
    val t0 = System.nanoTime()
    val e = embed(w, in, spark)
    val t1 = System.nanoTime()
    val (auc, ap) = score(w, e, in)
    val t2 = System.nanoTime()
    Outcome(e, auc, ap, (t1 - t0) / 1e9, (t2 - t0) / 1e9)
  }
}

/** Output checks. Each returns the problems it found; empty means passed. */
object Check {

  /** Xf, Xb are n×k/2, Y is d×k/2, and every entry is finite. */
  def shape(w: Workload, in: Inputs, e: Embeddings): Seq[String] = {
    val half = w.k / 2
    Seq(("Xf", e.xf, in.train.n), ("Xb", e.xb, in.train.n), ("Y", e.y, in.train.d)).flatMap {
      case (name, m, rows) =>
        if (m.rows != rows || m.cols != half) Seq(s"$name is ${m.rows}x${m.cols}, expected ${rows}x$half")
        else if (!m.data.forall(java.lang.Double.isFinite)) Seq(s"$name has a non-finite entry")
        else Nil
    }
  }

  /** On the default seed AUC/AP match the recorded reference within the
    * benchmark's bound; on any other seed they clear the recorded floor.
    */
  def quality(w: Workload, seed: Long, auc: Double, ap: Double, bounds: Map[String, Double]): Seq[String] = {
    def near(name: String, v: Double, ref: Double) =
      if (math.abs(v - ref) <= bounds(name) * ref) Nil
      else Seq(f"$name $v%.4f is not within ${bounds(name)} of the reference $ref%.4f")
    def above(name: String, v: Double, floor: Double) =
      if (v >= floor) Nil else Seq(f"$name $v%.4f is below the floor $floor%.4f")
    if (seed == w.defaultSeed) near("auc", auc, w.refAuc) ++ near("ap", ap, w.refAp)
    else above("auc", auc, w.floorAuc) ++ above("ap", ap, w.floorAp)
  }

  /** Element-by-element agreement: |a − b| ≤ relTol·max|a| in every entry
    * (relTol = 0 asks for identical output).
    */
  def same(what: String, a: Embeddings, b: Embeddings, relTol: Double): Seq[String] =
    Seq(("Xf", a.xf, b.xf), ("Xb", a.xb, b.xb), ("Y", a.y, b.y)).flatMap { case (name, x, y) =>
      if (x.rows != y.rows || x.cols != y.cols) Seq(s"$what: $name shapes differ")
      else {
        val tol = relTol * x.maxAbs
        val diff = x.data.indices.iterator.map(i => math.abs(x.data(i) - y.data(i))).maxOption.getOrElse(0.0)
        if (diff <= tol) Nil else Seq(s"$what: $name differs by $diff (allowed $tol)")
      }
    }

  /** Spark sums partition results in task-completion order, so its output
    * is reproducible only up to floating-point summation order.
    */
  def relTol(w: Workload): Double = if (w.backend == "spark") 1e-9 else 0.0
}
