package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel

import repro.core.{Apmi, Embeddings, PaneConfig, ParallelPane, SvdCcd}
import repro.graph.AttributedGraph
import repro.linalg.DenseMatrix

/** Distributed-dataflow PANE (the paper's Section 4, with Spark partitions
  * playing the role of threads). Every numerical step is a shared kernel
  * of `repro.core`; this object only slices the data and schedules them.
  *
  *  - **PAPMI** (Alg 6): attribute-column blocks are the unit of
  *    parallelism. The sparse walk matrix P and Rr, Rc are broadcast (the
  *    dataflow analog of the paper's shared memory); each task runs
  *    [[Apmi.propagate]] on its column block and finalizes F' in-block
  *    with [[Apmi.spmiCols]] (its normalizer is a column sum). A
  *    groupByKey over nodes stitches each node's rows and applies
  *    [[Apmi.spmiRows]] to the full B' row.
  *  - **SMGreedyInit** (Alg 7): node-row blocks are the unit of
  *    parallelism; [[SvdCcd.splitSvd]] per partition, [[SvdCcd.mergeSvd]]
  *    on the driver, per-row initialization of Xf, Xb, Sf, Sb on executors.
  *  - **PSVDCCD** (Alg 8): the X phase is a per-row map of
  *    [[SvdCcd.nodeRowUpdate]]. The Y phase is the Gram replay every
  *    backend runs (DESIGN.md §2): each partition sums [[SvdCcd.gramRow]]
  *    over its rows, the driver adds the partial Grams and runs
  *    [[SvdCcd.replayY]], and the resulting ΔY is broadcast and applied
  *    with [[SvdCcd.patchRow]] at the start of the next map.
  *
  * Block boundaries and seeds are those of [[ParallelPane]], so the result
  * matches it element by element up to floating-point summation order
  * (tested within 1e-9 of the largest entry).
  */
object SparkPane extends Serializable {

  /** A stitched affinity row: node id, block id (for SMGreedyInit), and
    * the node's rows of F' and B'.
    */
  final case class AffRow(id: Int, part: Int, f: Array[Double], b: Array[Double])

  /** CCD state row: embeddings + residuals for one node. */
  final case class CcdRow(id: Int, xf: Array[Double], xb: Array[Double],
                          sf: Array[Double], sb: Array[Double])

  /** Column-block slice of the affinity recurrence output (public: Spark
    * encoder codegen requires accessible case-class accessors).
    */
  final case class Slice(id: Int, block: Int, f: Array[Double], pbRow: Array[Double])

  private def blockOf(id: Int, bounds: Array[Int]): Int = {
    // bounds = exclusive upper bounds of each range, ascending
    var lo = 0
    var hi = bounds.length - 1
    while (lo < hi) {
      val mid = (lo + hi) / 2
      if (id < bounds(mid)) hi = mid else lo = mid + 1
    }
    lo
  }

  /** Distributed PAPMI: returns one AffRow per node (all n nodes). */
  def papmi(g: AttributedGraph, alpha: Double, t: Int, nb: Int,
            spark: SparkSession): Dataset[AffRow] = {
    import spark.implicits._
    val n = g.n
    val d = g.d
    val sc = spark.sparkContext
    val bcP = sc.broadcast(g.walkMatrix)
    val bcRr = sc.broadcast(g.attrRowNorm)
    val bcRc = sc.broadcast(g.attrColNorm)
    val colBlocks = ParallelPane.ranges(d, math.max(nb, math.min(d, sc.defaultParallelism * 2)))
    val nodeBounds = ParallelPane.ranges(n, nb).map(_._2).toArray

    val slices = spark.createDataset(colBlocks.zipWithIndex)
      .repartition(colBlocks.length)
      .flatMap { case ((from, until), bi) =>
        val (pf, pb) = Apmi.propagate(bcP.value, bcRr.value, bcRc.value, alpha, t, from, until)
        // F' is finalized in-block: its normalizer is a column sum.
        Apmi.spmiCols(pf, pf.colSums, 0, n)
        (0 until n).iterator.map(id => Slice(id, bi, pf.row(id), pb.row(id)))
      }

    val widths = colBlocks.map { case (f, u) => u - f }.toArray
    val offsets = widths.scanLeft(0)(_ + _)
    slices.groupByKey(_.id).mapGroups { (id, it) =>
      val f = new Array[Double](d)
      val b = new Array[Double](d)
      it.foreach { s =>
        System.arraycopy(s.f, 0, f, offsets(s.block), s.f.length)
        System.arraycopy(s.pbRow, 0, b, offsets(s.block), s.pbRow.length)
      }
      // B' needs the full row: row-normalize then SPMI (Alg 2 Lines 7-8).
      Apmi.spmiRows(new DenseMatrix(1, d, b), 0, 1)
      AffRow(id, blockOf(id, nodeBounds), f, b)
    }
  }

  /** Per-node output of SMGreedyInit stage 1 (public for encoder codegen);
    * `vi` carries the block's flattened right factor on one row per block.
    */
  final case class Stage1(id: Int, part: Int, f: Array[Double], b: Array[Double],
                          u: Array[Double], vi: Array[Double])

  /** Full distributed PANE. `nb` is the number of node/SVD blocks
    * (defaults to the cluster parallelism).
    */
  def embed(g: AttributedGraph, cfg: PaneConfig = PaneConfig(),
            nbOpt: Option[Int] = None)(implicit spark: SparkSession): Embeddings = {
    import spark.implicits._
    val sc = spark.sparkContext
    val nb = nbOpt.getOrElse(sc.defaultParallelism)
    val half = cfg.k / 2
    val n = g.n
    val d = g.d
    // Algorithm 4's single t: RandSVD's power iterations and the CCD sweeps.
    val iters = cfg.refineIters

    val aff = papmi(g, cfg.alpha, cfg.t, nb, spark)
      .repartition(nb, $"part")
      .persist(StorageLevel.MEMORY_AND_DISK)

    // ---- SMGreedyInit stage 1: per-block RandSVD of F'[Vi] --------------
    val stage1 = aff.mapPartitions { rows =>
      rows.toSeq.groupBy(_.part).iterator.flatMap { case (part, group) =>
        val sorted = group.sortBy(_.id)
        val (u, vt) = SvdCcd.splitSvd(DenseMatrix.fromRows(sorted.map(_.f)), half, iters, cfg.seed, part)
        sorted.iterator.zipWithIndex.map { case (r, i) =>
          Stage1(r.id, part, r.f, r.b, u.row(i), if (i == 0) vt.data else null)
        }
      }
    }.persist(StorageLevel.MEMORY_AND_DISK)

    // ---- merge SVD on the driver (Alg 7 Lines 4-6) ----------------------
    val viByPart = stage1.filter(_.vi != null).map(s => (s.part, s.vi)).collect().sortBy(_._1)
    val (w, y0) = SvdCcd.mergeSvd(
      viByPart.map { case (_, data) => new DenseMatrix(half, d, data) }.toSeq, half, iters, cfg.seed)
    // Parts may be non-contiguous ids if some blocks were empty; map part -> W slice.
    val partIndex = viByPart.map(_._1).zipWithIndex.toMap
    val bcW = sc.broadcast(w)
    val bcPartIndex = sc.broadcast(partIndex)
    val bcY0 = sc.broadcast(y0)

    // ---- stage 2: per-row init of Xf, Xb, Sf, Sb (Alg 7 Lines 7-11) -----
    var state = stage1.map { s =>
      val wAll = bcW.value
      val yv = bcY0.value
      val bi = bcPartIndex.value(s.part)
      val xf = new Array[Double](half)
      var l2 = 0
      while (l2 < half) {
        var acc = 0.0
        var l = 0
        while (l < half) { acc += s.u(l) * wAll(bi * half + l, l2); l += 1 }
        xf(l2) = acc
        l2 += 1
      }
      val xb = new Array[Double](half)
      var l = 0
      while (l < half) {
        var acc = 0.0
        var j = 0
        while (j < d) { acc += s.b(j) * yv(j, l); j += 1 }
        xb(l) = acc
        l += 1
      }
      val sf = new Array[Double](d)
      val sb = new Array[Double](d)
      var j = 0
      while (j < d) {
        var accF = 0.0
        var accB = 0.0
        l = 0
        while (l < half) { accF += xf(l) * yv(j, l); accB += xb(l) * yv(j, l); l += 1 }
        sf(j) = accF - s.f(j)
        sb(j) = accB - s.b(j)
        j += 1
      }
      CcdRow(s.id, xf, xb, sf, sb)
    }.persist(StorageLevel.MEMORY_AND_DISK)
    state.count() // materialize before unpersisting parents
    aff.unpersist()
    stage1.unpersist()

    // ---- PSVDCCD iterations --------------------------------------------
    var y = y0
    var pendingDyT: DenseMatrix = null
    var it = 0
    while (it < iters) {
      val bcY = sc.broadcast(y)
      val bcDyT = sc.broadcast(Option(pendingDyT))
      val prev = state
      state = prev.mapPartitions { rows =>
        val yv = bcY.value
        val dyT = bcDyT.value
        val yColNorm = SvdCcd.yColNorms(yv)
        rows.map { row =>
          // The previous Y step's residual patch, deferred into this map.
          dyT.foreach(SvdCcd.patchRow(row.xf, row.xb, 0, row.sf, row.sb, 0, _, 0, d))
          SvdCcd.nodeRowUpdate(row.xf, row.xb, 0, row.sf, row.sb, 0, yv, yColNorm)
          row
        }
      }.persist(StorageLevel.MEMORY_AND_DISK)

      // Per-partition Grams, summed on the driver.
      val gram = state.mapPartitions { rows =>
        val acc = SvdCcd.gramBuffer(half, d)
        rows.foreach(r => SvdCcd.gramRow(r.xf, r.xb, 0, r.sf, r.sb, 0, half, 0, d, acc))
        Iterator.single(acc)
      }.reduce { (a, b) =>
        var i = 0
        while (i < a.length) { a(i) += b(i); i += 1 }
        a
      }
      prev.unpersist()

      // Exact replay of the sequential Y phase (Alg 4 Lines 10-14) on the
      // driver, on a copy: the broadcast Y may back persisted partitions.
      y = y.copy
      pendingDyT = SvdCcd.replayY(y, 0, d, gram)
      it += 1
    }

    val rows = state.map(r => (r.id, r.xf, r.xb)).collect()
    state.unpersist()
    val xf = DenseMatrix.zeros(n, half)
    val xb = DenseMatrix.zeros(n, half)
    rows.foreach { case (id, xfr, xbr) =>
      xf.setRow(id, xfr)
      xb.setRow(id, xbr)
    }
    Embeddings(xf, xb, y)
  }

  /** Collect a distributed affinity Dataset back to dense matrices —
    * used by tests to compare against the single-thread APMI.
    */
  def collectAffinity(aff: Dataset[AffRow], n: Int, d: Int): (DenseMatrix, DenseMatrix) = {
    val f = DenseMatrix.zeros(n, d)
    val b = DenseMatrix.zeros(n, d)
    aff.collect().foreach { r =>
      f.setRow(r.id, r.f)
      b.setRow(r.id, r.b)
    }
    (f, b)
  }
}
