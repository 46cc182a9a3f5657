package repro.core

import repro.linalg.{DenseMatrix, RandSvd}
import scala.util.Random

/** Embedding triple: forward/backward node embeddings (n × k/2 each) and
  * attribute embeddings (d × k/2).
  */
final case class Embeddings(xf: DenseMatrix, xb: DenseMatrix, y: DenseMatrix) {
  def k: Int = xf.cols * 2
}

/** Algorithms 3–4 — joint factorization of F', B' via greedy SVD seeding
  * followed by cyclic coordinate descent with dynamically maintained
  * residuals Sf = Xf·Yᵀ − F', Sb = Xb·Yᵀ − B'.
  */
object SvdCcd extends Serializable {

  /** Full solver state between phases (what GreedyInit returns). */
  final case class State(
      xf: DenseMatrix, xb: DenseMatrix, y: DenseMatrix,
      sf: DenseMatrix, sb: DenseMatrix,
  )

  /** Algorithm 3 — GreedyInit.
    *
    * RandSVD(F', k/2) gives U Σ Vᵀ; seed Xf = UΣ, Y = V. Because V from
    * (near-)exact SVD is unitary, Xb ≈ Xb·Yᵀ·Y ≈ B'·Y is a good backward
    * seed, which is the key trick that slashes CCD iterations.
    */
  def greedyInit(f: DenseMatrix, b: DenseMatrix, k: Int, svdIters: Int, seed: Long = 42L): State = {
    require(k >= 2 && k % 2 == 0, s"space budget k must be even and >= 2, got $k")
    val half = k / 2
    val (u, sig, y) = RandSvd(f, half, svdIters, seed = seed)
    val xf = u.scaleCols(sig)
    val xb = b * y
    val sf = xf.mulT(y) - f
    val sb = xb.mulT(y) - b
    State(xf, xb, y, sf, sb)
  }

  /** SMGreedyInit's split step (Algorithm 7 Lines 2–3) for node block
    * `block`: RandSVD(F'[Vi], k/2) = U Σ Vᵀ, returned as (U·Σ, Vᵀ).
    */
  def splitSvd(fBlock: DenseMatrix, half: Int, svdIters: Int, seed: Long,
               block: Int): (DenseMatrix, DenseMatrix) = {
    val (u, sig, v) = RandSvd(fBlock, half, svdIters, seed = seed + block)
    (u.scaleCols(sig), v.transpose)
  }

  /** SMGreedyInit's merge step (Algorithm 7 Lines 4–6): RandSVD of the
    * stacked [V1ᵀ; …; V_nbᵀ] = Φ Σ Yᵀ, returned as (W = Φ·Σ, Y). Rows
    * [i·k/2, (i+1)·k/2) of W belong to block i.
    */
  def mergeSvd(vts: Seq[DenseMatrix], half: Int, svdIters: Int, seed: Long): (DenseMatrix, DenseMatrix) = {
    val (phi, sig, y) = RandSvd(DenseMatrix.vstack(vts), half, svdIters, seed = seed + 9999)
    (phi.scaleCols(sig), y)
  }

  /** Random initialization — the PANE-R baseline of §5.7 (GreedyInit
    * effectiveness study). Scaled to the data's magnitude so CCD has a
    * fighting chance.
    */
  def randomInit(f: DenseMatrix, b: DenseMatrix, k: Int, seed: Long = 7L): State = {
    require(k >= 2 && k % 2 == 0, s"space budget k must be even and >= 2, got $k")
    val half = k / 2
    val rnd = new Random(seed)
    val scale = f.frobenius / math.sqrt(f.rows.toDouble * f.cols * half)
    def mk(r: Int, c: Int) = {
      val m = DenseMatrix.zeros(r, c)
      var i = 0
      while (i < m.data.length) { m.data(i) = rnd.nextGaussian() * math.sqrt(scale); i += 1 }
      m
    }
    val xf = mk(f.rows, half)
    val xb = mk(f.rows, half)
    val y = mk(f.cols, half)
    State(xf, xb, y, xf.mulT(y) - f, xb.mulT(y) - b)
  }

  /** One full CCD sweep over the node rows [rowFrom, rowUntil) (Lines 3–9
    * of Algorithm 4): [[nodeRowUpdate]] on each row. Mutates the state in
    * place; disjoint row ranges may run concurrently.
    */
  def nodeSweep(st: State, rowFrom: Int, rowUntil: Int): Unit = {
    val half = st.y.cols
    val d = st.y.rows
    val norms = yColNorms(st.y)
    var i = rowFrom
    while (i < rowUntil) {
      nodeRowUpdate(st.xf.data, st.xb.data, i * half, st.sf.data, st.sb.data, i * d, st.y, norms)
      i += 1
    }
  }

  /** One full CCD sweep over attribute rows of Y (Lines 10–14 of
    * Algorithm 4), for attributes [attrFrom, attrUntil). Mutates in place.
    *
    * Safe to run concurrently for disjoint attribute ranges: with Xf, Xb
    * fixed, updating Y[rj,·] only reads/writes column rj of Sf/Sb.
    */
  def attrSweep(st: State, attrFrom: Int, attrUntil: Int): Unit = {
    val half = st.y.cols
    val n = st.xf.rows
    val d = st.y.rows
    // Column norms ||Xf[:,l]||² + ||Xb[:,l]||² — fixed during the Y phase.
    val xColNorm = new Array[Double](half)
    var l = 0
    while (l < half) {
      var s = 0.0
      var i = 0
      while (i < n) {
        val a = st.xf(i, l); val b = st.xb(i, l)
        s += a * a + b * b
        i += 1
      }
      xColNorm(l) = s
      l += 1
    }
    var j = attrFrom
    while (j < attrUntil) {
      l = 0
      while (l < half) {
        if (xColNorm(l) > 1e-300) {
          // μ_y(rj,l) = (Xfᵀ[:,l]·Sf[:,rj] + Xbᵀ[:,l]·Sb[:,rj]) / (‖Xf[:,l]‖²+‖Xb[:,l]‖²)
          var num = 0.0
          var i = 0
          while (i < n) {
            num += st.xf(i, l) * st.sf.data(i * d + j) + st.xb(i, l) * st.sb.data(i * d + j)
            i += 1
          }
          val mu = num / xColNorm(l)
          st.y(j, l) = st.y(j, l) - mu
          // Sf[:,rj] -= μ_y · Xf[:,l], Sb[:,rj] -= μ_y · Xb[:,l] (Eq 20)
          i = 0
          while (i < n) {
            st.sf.data(i * d + j) -= mu * st.xf(i, l)
            st.sb.data(i * d + j) -= mu * st.xb(i, l)
            i += 1
          }
        }
        l += 1
      }
      j += 1
    }
  }

  /** ‖Y[:,l]‖² for every coordinate l — the denominators of Eq (16). */
  def yColNorms(y: DenseMatrix): Array[Double] = {
    val half = y.cols
    val out = new Array[Double](half)
    var l = 0
    while (l < half) {
      var s = 0.0
      var j = 0
      while (j < y.rows) { val v = y(j, l); s += v * v; j += 1 }
      out(l) = s
      l += 1
    }
    out
  }

  /** The per-node X-phase update (Alg 4 Lines 4–9): for each coordinate
    * l, step Xf[vi,l], Xb[vi,l] to the exact coordinate minimizer and patch
    * the residual rows in O(d). The node's k/2 embedding entries start at
    * `xOff` in `xf`/`xb`, its d residual entries at `sOff` in `sf`/`sb`.
    * `yColNorm` is [[yColNorms]] of `y`.
    */
  def nodeRowUpdate(xf: Array[Double], xb: Array[Double], xOff: Int,
                    sf: Array[Double], sb: Array[Double], sOff: Int,
                    y: DenseMatrix, yColNorm: Array[Double]): Unit = {
    val half = y.cols
    val d = y.rows
    var l = 0
    while (l < half) {
      if (yColNorm(l) > 1e-300) {
        // μ_f(vi,l) = Sf[vi]·Y[:,l] / ||Y[:,l]||², μ_b likewise (Eq 16)
        var dotF = 0.0
        var dotB = 0.0
        var j = 0
        while (j < d) {
          val yv = y(j, l)
          dotF += sf(sOff + j) * yv
          dotB += sb(sOff + j) * yv
          j += 1
        }
        val muF = dotF / yColNorm(l)
        val muB = dotB / yColNorm(l)
        xf(xOff + l) -= muF
        xb(xOff + l) -= muB
        // Sf[vi] -= μ_f · Y[:,l]ᵀ (Eq 18), Sb[vi] -= μ_b · Y[:,l]ᵀ (Eq 19)
        j = 0
        while (j < d) {
          val yv = y(j, l)
          sf(sOff + j) -= muF * yv
          sb(sOff + j) -= muB * yv
          j += 1
        }
      }
      l += 1
    }
  }

  /** Algorithm 4 — SVDCCD: greedy init + `iters` CCD refinement sweeps. */
  def run(f: DenseMatrix, b: DenseMatrix, k: Int, iters: Int,
          init: State = null, seed: Long = 42L): Embeddings = {
    val st = if (init != null) init else greedyInit(f, b, k, iters, seed)
    var it = 0
    while (it < iters) {
      nodeSweep(st, 0, f.rows)
      attrSweep(st, 0, f.cols)
      it += 1
    }
    Embeddings(st.xf, st.xb, st.y)
  }

  /** Objective (4): ‖F' − Xf·Yᵀ‖²_F + ‖B' − Xb·Yᵀ‖²_F. */
  def objective(f: DenseMatrix, b: DenseMatrix, e: Embeddings): Double = {
    val rf = e.xf.mulT(e.y) - f
    val rb = e.xb.mulT(e.y) - b
    val a = rf.frobenius
    val c = rb.frobenius
    a * a + c * c
  }
}
