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
  *
  * The CCD kernels all read the n × d residuals along rows: the X phase is
  * [[nodeRowUpdate]] per node, and the Y phase is the Gram replay of
  * DESIGN.md §2 — [[gramRow]] per node, [[replayY]] on the k/2 × d Grams,
  * [[patchRow]] per node. Every backend schedules these same kernels.
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
    * Algorithm 4), for attributes [attrFrom, attrUntil), as the Gram replay
    * of DESIGN.md §2: [[gramRow]] over every node, [[replayY]], then
    * [[patchRow]] over every node. Mutates in place; Sf, Sb stay consistent.
    *
    * Disjoint attribute ranges may run concurrently, and the result does
    * not depend on how [0, d) is split: a Y[rj,·] update only touches
    * column rj of Sf/Sb, and every range sums its Grams in node order.
    */
  def attrSweep(st: State, attrFrom: Int, attrUntil: Int): Unit = {
    val half = st.y.cols
    val n = st.xf.rows
    val d = st.y.rows
    val g = gramBuffer(half, attrUntil - attrFrom)
    var i = 0
    while (i < n) {
      gramRow(st.xf.data, st.xb.data, i * half, st.sf.data, st.sb.data, i * d, half, attrFrom, attrUntil, g)
      i += 1
    }
    val dyT = replayY(st.y, attrFrom, attrUntil, g)
    i = 0
    while (i < n) {
      patchRow(st.xf.data, st.xb.data, i * half, st.sf.data, st.sb.data, i * d, dyT, attrFrom, attrUntil)
      i += 1
    }
  }

  /** Zeroed Grams of w attribute columns, row-major in one flat array:
    * Gf = XfᵀSf, Gb = XbᵀSb (k/2 × w each), Hf = XfᵀXf, Hb = XbᵀXb
    * (k/2 × k/2 each). Buffers over disjoint node sets add elementwise.
    */
  def gramBuffer(half: Int, w: Int): Array[Double] = new Array[Double](2 * half * w + 2 * half * half)

  /** Adds node vi to the [[gramBuffer]] `g` of columns [from, until):
    * Gf[l,·] += Xf[vi,l]·Sf[vi, from:until], Hf += Xf[vi]ᵀXf[vi], and Gb,
    * Hb likewise. Offsets are as in [[nodeRowUpdate]] (`sOff` at column 0).
    */
  def gramRow(xf: Array[Double], xb: Array[Double], xOff: Int,
              sf: Array[Double], sb: Array[Double], sOff: Int,
              half: Int, from: Int, until: Int, g: Array[Double]): Unit = {
    val w = until - from
    val gbOff = half * w
    val hfOff = 2 * gbOff
    val hbOff = hfOff + half * half
    var l = 0
    while (l < half) {
      val a = xf(xOff + l)
      val b = xb(xOff + l)
      val gf = l * w - from
      val gb = gbOff + gf
      var j = from
      while (j < until) {
        g(gf + j) += a * sf(sOff + j)
        g(gb + j) += b * sb(sOff + j)
        j += 1
      }
      var l2 = 0
      while (l2 < half) {
        g(hfOff + l * half + l2) += a * xf(xOff + l2)
        g(hbOff + l * half + l2) += b * xb(xOff + l2)
        l2 += 1
      }
      l += 1
    }
  }

  /** The sequential Y-phase steps (Alg 4 Lines 10–14) for attributes
    * [from, until), replayed on their Grams `g`: μ_y(rj,l) = (Gf[l,rj] +
    * Gb[l,rj]) / (Hf[l,l] + Hb[l,l]), then Gf[·,rj] −= μ·Hf[·,l] and Gb
    * likewise, as the move Sf[:,rj] −= μ·Xf[:,l] would change them. Updates
    * those rows of `y` in place and consumes `g`. Returns the step as ΔYᵀ
    * (k/2 × (until − from), Y_new = Y_old − ΔY) for [[patchRow]].
    */
  def replayY(y: DenseMatrix, from: Int, until: Int, g: Array[Double]): DenseMatrix = {
    val half = y.cols
    val w = until - from
    val gbOff = half * w
    val hfOff = 2 * gbOff
    val hbOff = hfOff + half * half
    val dyT = DenseMatrix.zeros(half, w)
    var c = 0
    while (c < w) {
      var l = 0
      while (l < half) {
        val denom = g(hfOff + l * half + l) + g(hbOff + l * half + l)
        if (denom > 1e-300) {
          val mu = (g(l * w + c) + g(gbOff + l * w + c)) / denom
          y(from + c, l) -= mu
          dyT(l, c) = mu
          var l2 = 0
          while (l2 < half) {
            g(l2 * w + c) -= mu * g(hfOff + l2 * half + l)
            g(gbOff + l2 * w + c) -= mu * g(hbOff + l2 * half + l)
            l2 += 1
          }
        }
        l += 1
      }
      c += 1
    }
    dyT
  }

  /** Eq 20 for node vi: Sf[vi, from:until] −= Xf[vi]·ΔYᵀ and Sb likewise,
    * one coordinate at a time, in the column sweep's order. `dyT` is
    * [[replayY]]'s result for [from, until); offsets are as in [[gramRow]].
    */
  def patchRow(xf: Array[Double], xb: Array[Double], xOff: Int,
               sf: Array[Double], sb: Array[Double], sOff: Int,
               dyT: DenseMatrix, from: Int, until: Int): Unit = {
    val dy = dyT.data
    var l = 0
    while (l < dyT.rows) {
      val a = xf(xOff + l)
      val b = xb(xOff + l)
      val dOff = l * dyT.cols - from
      var j = from
      while (j < until) {
        val v = dy(dOff + j)
        sf(sOff + j) -= a * v
        sb(sOff + j) -= b * v
        j += 1
      }
      l += 1
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
