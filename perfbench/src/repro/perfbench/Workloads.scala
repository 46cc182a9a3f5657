package repro.perfbench

import java.io.File

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}

import repro.core.PaneConfig
import repro.eval.Tasks
import repro.graph.{AttributedGraph, Datasets, SynthGraph}

/** One benchmark workload, as recorded in `perfbench/workloads.json`. */
final case class Workload(
    name: String,
    graph: SynthGraph.Config,
    task: String,
    k: Int,
    ccdIters: Option[Int],
    backend: String,
    nb: Int,
    warmupScale: Double,
    warmupRuns: Int,
    refAuc: Double,
    refAp: Double,
    floorAuc: Double,
    floorAp: Double,
) {
  require(Set("attr", "link")(task), s"$name: unknown task $task")
  require(Set("single", "threads", "spark")(backend), s"$name: unknown backend $backend")

  def defaultSeed: Long = graph.seed
  def paneConfig: PaneConfig = PaneConfig(k = k, ccdIters = ccdIters)

  /** The workload seed feeds the graph generator and the split. The default
    * seed gives the `Datasets` graph and the task's own default split.
    */
  def inputs(seed: Long): Inputs =
    inputs(graph.copy(seed = seed), if (seed == defaultSeed) None else Some(seed))

  /** Inputs for JIT and Spark warm-up: a graph `warmupScale` times the
    * size from the same generator, or the measured inputs themselves at scale 1.
    */
  def warmupInputs(seed: Long, measured: Inputs): Inputs =
    if (warmupScale >= 1) measured
    else inputs(graph.copy(n = math.max(400, (graph.n * warmupScale).toInt), seed = seed + 1000003L), Some(seed))

  /** Splits with the task's default ratio, and its default seed if `splitSeed` is None. */
  private def inputs(cfg: SynthGraph.Config, splitSeed: Option[Long]): Inputs = {
    val g = SynthGraph.generate(cfg)
    val (train, pairs) = (task, splitSeed) match {
      case ("attr", None)    => Tasks.attributeInference(g)
      case ("attr", Some(s)) => Tasks.attributeInference(g, seed = s)
      case (_, None)         => Tasks.linkPrediction(g)
      case (_, Some(s))      => Tasks.linkPrediction(g, seed = s)
    }
    Inputs(train, pairs)
  }
}

/** A split: the training graph the backend embeds and the scored test pairs. */
final case class Inputs(train: AttributedGraph, pairs: Array[Tasks.TestPair]) {

  /** The training graph with none of its lazy matrices built yet. */
  def freshGraph: AttributedGraph = train.copy()
}

object Workloads {

  private val mapper = new ObjectMapper()

  def load(file: File): Seq[Workload] =
    mapper.readTree(file).get("workloads").elements().asScala.map(parse).toSeq

  private def parse(j: JsonNode): Workload = {
    val cfg = Datasets.byName(j.get("dataset").asText).copy(n = j.get("n").asInt, seed = j.get("default_seed").asLong)
    val ccd = j.get("ccd_iters")
    Workload(
      name = j.get("name").asText,
      graph = cfg,
      task = j.get("task").asText,
      k = j.get("k").asInt,
      ccdIters = if (ccd == null || ccd.isNull) None else Some(ccd.asInt),
      backend = j.get("backend").asText,
      nb = j.get("nb").asInt,
      warmupScale = j.get("warmup_scale").asDouble,
      warmupRuns = j.get("warmup_runs").asInt,
      refAuc = j.get("reference").get("auc").asDouble,
      refAp = j.get("reference").get("ap").asDouble,
      floorAuc = j.get("floor").get("auc").asDouble,
      floorAp = j.get("floor").get("ap").asDouble)
  }

  /** A metric declared in BENCHMARK.json; `bound` is 0 for per-layer metrics. */
  final case class Metric(name: String, unit: String, bound: Double)

  /** (end-to-end, per-layer) metrics declared in BENCHMARK.json. */
  def metrics(benchmarkJson: File): (Seq[Metric], Seq[Metric]) = {
    val root = mapper.readTree(benchmarkJson)
    def list(key: String) = root.get(key).elements().asScala.map { m =>
      Metric(m.get("name").asText, m.get("unit").asText, if (m.has("bound")) m.get("bound").asDouble else 0.0)
    }.toSeq
    (list("end_to_end"), list("per_layer"))
  }
}
