package repro.core

import java.util.concurrent.{Callable, Executors}
import scala.jdk.CollectionConverters._

import repro.graph.AttributedGraph
import repro.linalg.{DenseMatrix, SparseMatrix}

/** Algorithms 5–8 — parallel PANE on a local thread pool, faithful to the
  * paper's block structure. The numerical steps are the sequential
  * kernels of [[Apmi]] and [[SvdCcd]], run per block:
  *
  *  - PAPMI (Alg 6): [[Apmi.propagate]] per *attribute-column* block;
  *    results concatenate to exactly the single-thread matrices (Lemma 4.1
  *    — tested), then SPMI runs per node block.
  *  - SMGreedyInit (Alg 7): [[SvdCcd.splitSvd]] per *node-row* block,
  *    [[SvdCcd.mergeSvd]] of the stacked right factors, then per-block
  *    initialization of Xf, Xb, Sf, Sb.
  *  - PSVDCCD (Alg 8): CCD sweeps run per node block (X phase,
  *    [[SvdCcd.nodeSweep]]) and per attribute block (Y phase,
  *    [[SvdCcd.attrSweep]], the Gram replay on the block's columns). Both
  *    phases are exactly parallel: row updates touch disjoint rows of
  *    Xf/Xb/Sf/Sb, and with Xf, Xb fixed a Y[rj,·] update only touches
  *    column rj of Sf/Sb. Each attribute block reads contiguous row
  *    segments and sums its Grams over the nodes in one fixed order, so
  *    the result is bit-identical to [[SvdCcd.run]] for every nb.
  */
object ParallelPane {

  /** Run `tasks` on `nb` pool threads, propagating the first failure. */
  private def runAll(nb: Int, tasks: Seq[() => Unit]): Unit = {
    val pool = Executors.newFixedThreadPool(nb)
    try {
      val futures = pool.invokeAll(tasks.map(t => new Callable[Unit] { def call(): Unit = t() }).asJava)
      futures.asScala.foreach(_.get()) // rethrows task exceptions
    } finally pool.shutdown()
  }

  /** Split [0, size) into at most `nb` near-equal contiguous ranges. */
  def ranges(size: Int, nb: Int): Seq[(Int, Int)] = {
    val blocks = math.max(1, math.min(nb, size))
    (0 until blocks).map { i =>
      val from = (size.toLong * i / blocks).toInt
      val until = (size.toLong * (i + 1) / blocks).toInt
      (from, until)
    }.filter(r => r._2 > r._1)
  }

  /** Algorithm 6 — PAPMI: block-parallel affinity approximation. */
  def papmi(p: SparseMatrix, rr: SparseMatrix, rc: SparseMatrix,
            alpha: Double, t: Int, nb: Int): (DenseMatrix, DenseMatrix) = {
    val n = p.rows
    val d = rr.cols
    // Each attribute-column block runs APMI's recurrence and writes its
    // columns into the shared matrices (disjoint writes — no
    // synchronization needed).
    val pf = DenseMatrix.zeros(n, d)
    val pb = DenseMatrix.zeros(n, d)
    runAll(nb, ranges(d, nb).map { case (from, until) =>
      () => {
        val (bf, bb) = Apmi.propagate(p, rr, rc, alpha, t, from, until)
        val w = until - from
        var i = 0
        while (i < n) {
          System.arraycopy(bf.data, i * w, pf.data, i * d + from, w)
          System.arraycopy(bb.data, i * w, pb.data, i * d + from, w)
          i += 1
        }
      }
    })
    // Normalization + SPMI, parallel over node blocks (Alg 6 Lines 9-13).
    val colSumsF = pf.colSums
    runAll(nb, ranges(n, nb).map { case (from, until) =>
      () => {
        Apmi.spmiCols(pf, colSumsF, from, until)
        Apmi.spmiRows(pb, from, until)
      }
    })
    (pf, pb)
  }

  /** Algorithm 7 — SMGreedyInit: split-merge parallel SVD seeding. */
  def smGreedyInit(f: DenseMatrix, b: DenseMatrix, k: Int, svdIters: Int,
                   nb: Int, seed: Long = 42L): SvdCcd.State = {
    require(k >= 2 && k % 2 == 0, s"space budget k must be even and >= 2, got $k")
    val half = k / 2
    val n = f.rows
    val d = f.cols
    val nodeBlocks = ranges(n, nb)
    val us = new Array[DenseMatrix](nodeBlocks.length)
    val vts = new Array[DenseMatrix](nodeBlocks.length)
    runAll(nb, nodeBlocks.zipWithIndex.map { case ((from, until), bi) =>
      () => {
        val (u, vt) = SvdCcd.splitSvd(f.rowSlice(from, until), half, svdIters, seed, bi)
        us(bi) = u
        vts(bi) = vt
      }
    })
    val (w, y) = SvdCcd.mergeSvd(vts.toSeq, half, svdIters, seed)
    // Per-block init of Xf, Xb, Sf, Sb (Alg 7 Lines 7-11).
    val xf = DenseMatrix.zeros(n, half)
    val xb = DenseMatrix.zeros(n, half)
    val sf = DenseMatrix.zeros(n, d)
    val sb = DenseMatrix.zeros(n, d)
    runAll(nb, nodeBlocks.zipWithIndex.map { case ((from, until), bi) =>
      () => {
        val wBlock = w.rowSlice(bi * half, (bi + 1) * half)
        val xfB = us(bi) * wBlock
        val bBlock = b.rowSlice(from, until)
        val xbB = bBlock * y
        val sfB = xfB.mulT(y) - f.rowSlice(from, until)
        val sbB = xbB.mulT(y) - bBlock
        System.arraycopy(xfB.data, 0, xf.data, from * half, xfB.data.length)
        System.arraycopy(xbB.data, 0, xb.data, from * half, xbB.data.length)
        System.arraycopy(sfB.data, 0, sf.data, from * d, sfB.data.length)
        System.arraycopy(sbB.data, 0, sb.data, from * d, sbB.data.length)
      }
    })
    SvdCcd.State(xf, xb, y, sf, sb)
  }

  /** Algorithm 8 — PSVDCCD: parallel CCD refinement. */
  def psvdccd(f: DenseMatrix, b: DenseMatrix, k: Int, iters: Int, nb: Int,
              init: SvdCcd.State = null, seed: Long = 42L): Embeddings = {
    val st = if (init != null) init else smGreedyInit(f, b, k, iters, nb, seed)
    var it = 0
    while (it < iters) {
      runAll(nb, ranges(f.rows, nb).map { case (from, until) =>
        () => SvdCcd.nodeSweep(st, from, until)
      })
      runAll(nb, ranges(f.cols, nb).map { case (from, until) =>
        () => SvdCcd.attrSweep(st, from, until)
      })
      it += 1
    }
    Embeddings(st.xf, st.xb, st.y)
  }

  /** Algorithm 5 — parallel PANE end to end. */
  def embed(g: AttributedGraph, cfg: PaneConfig = PaneConfig(), nb: Int): Embeddings = {
    val (fP, bP) = papmi(g.walkMatrix, g.attrRowNorm, g.attrColNorm, cfg.alpha, cfg.t, nb)
    psvdccd(fP, bP, cfg.k, cfg.refineIters, nb, seed = cfg.seed)
  }
}
