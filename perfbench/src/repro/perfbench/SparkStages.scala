package repro.perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Listener on the benchmark's own session that totals what Spark ran
  * between [[SparkStages.attach]] and [[finish]]. Events arrive on Spark's
  * listener thread; [[finish]] runs a marker job and waits for its end
  * event, so every earlier event has been seen before the totals are read.
  */
final class SparkStages private (spark: SparkSession) extends SparkListener {

  private val MarkerKey = "perfbench.marker"
  private var markerJob = -1
  private var markerStages = Set.empty[Int]
  private var jobs = 0
  private var stages = 0
  private var tasks = 0
  private var runMs = 0L
  private var shuffleWrite = 0L
  private var shuffleRead = 0L
  private var resultBytes = 0L
  private val active = ArrayBuffer.empty[(Long, Long)]
  private val markerSeen = new CountDownLatch(1)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    if (e.properties != null && e.properties.getProperty(MarkerKey) != null) {
      markerStages = e.stageIds.toSet
      markerJob = e.jobId
    } else jobs += 1

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (e.jobId == markerJob) markerSeen.countDown()

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val info = e.stageInfo
    if (!markerStages(info.stageId)) {
      stages += 1
      for (s <- info.submissionTime; c <- info.completionTime) active += ((s, c))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (!markerStages(e.stageId) && e.taskMetrics != null) {
      val m = e.taskMetrics
      tasks += 1
      runMs += m.executorRunTime
      shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      shuffleRead += m.shuffleReadMetrics.totalBytesRead
      resultBytes += m.resultSize
    }

  /** Detaches the listener and returns the `spark.*` metrics for a call that
    * ran from `startMs` to `endMs` (epoch milliseconds) and took `wallS`.
    */
  def finish(startMs: Long, endMs: Long, wallS: Double): Map[String, Double] = {
    val sc = spark.sparkContext
    sc.setLocalProperty(MarkerKey, "1")
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setLocalProperty(MarkerKey, null)
    require(markerSeen.await(60, TimeUnit.SECONDS), "Spark listener did not see the marker job")
    sc.removeSparkListener(this)
    val busyS = union(active.toSeq.map { case (s, c) => (math.max(s, startMs), math.min(c, endMs)) }) / 1e3
    val cores = sc.defaultParallelism
    val mb = 1024.0 * 1024.0
    Map(
      "spark.jobs" -> jobs.toDouble,
      "spark.stages" -> stages.toDouble,
      "spark.tasks" -> tasks.toDouble,
      "spark.task_s" -> runMs / 1e3,
      "spark.driver_only_s" -> math.max(0.0, wallS - busyS),
      "spark.shuffle_write_mb" -> shuffleWrite / mb,
      "spark.shuffle_read_mb" -> shuffleRead / mb,
      "spark.result_mb" -> resultBytes / mb,
      "spark.par_eff" -> runMs / 1e3 / (wallS * cores))
  }

  /** Total length of the union of the intervals. */
  private def union(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var reach = Long.MinValue
    intervals.filter(i => i._2 > i._1).sortBy(_._1).foreach { case (s, c) =>
      if (c > reach) { total += c - math.max(s, reach); reach = c }
    }
    total
  }
}

object SparkStages {
  def attach(spark: SparkSession): SparkStages = {
    val l = new SparkStages(spark)
    spark.sparkContext.addSparkListener(l)
    l
  }
}
