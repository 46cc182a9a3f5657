package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}

import scala.jdk.CollectionConverters._

/** Process-wide counters from the JVM's management beans. */
object Jvm {

  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq

  /** CPU time of every thread of this process, GC and JIT included. */
  def cpuNanos: Long = os.getProcessCpuTime

  /** Seconds since the JVM started. */
  def uptimeS: Double = ManagementFactory.getRuntimeMXBean.getUptime / 1e3

  /** (collections, milliseconds spent collecting) summed over all collectors. */
  def gc: (Long, Long) = (gcs.map(_.getCollectionCount).sum, gcs.map(_.getCollectionTime).sum)

  def resetPeakHeap(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the heap pools' peaks since the last reset: an upper bound on the peak heap. */
  def peakHeapBytes: Long = heapPools.map(_.getPeakUsage.getUsed).sum
}
