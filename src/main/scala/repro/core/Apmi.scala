package repro.core

import repro.graph.AttributedGraph
import repro.linalg.{DenseMatrix, SparseMatrix}

/** Algorithm 2 — APMI: approximate forward/backward affinity matrices
  * F', B' in O(m·d·t) without sampling random walks.
  *
  * Iterates  P_f^{(ℓ)} = (1−α)·P·P_f^{(ℓ−1)} + α·P_f^{(0)}  (and the
  * transposed recurrence for P_b), then column-normalizes P_f^{(t)},
  * row-normalizes P_b^{(t)}, and applies the SPMI transform
  * F' = log(n·P̂_f + 1), B' = log(d·P̂_b + 1)  (Equation (7)).
  */
object Apmi {

  /** The approximate affinity matrices F' and B'. */
  final case class Result(fPrime: DenseMatrix, bPrime: DenseMatrix)

  /** t = max(1, ⌈log ε / log(1−α) − 1⌉), which guarantees
    * (1−α)^{t+1} ≤ ε as required by Lemma 3.1 (and matches the paper's
    * ε ∈ {0.001..0.25} ↔ t ∈ {9..1} at α = 0.5).
    */
  def iterations(alpha: Double, eps: Double): Int = {
    require(alpha > 0 && alpha < 1, s"alpha must be in (0,1), got $alpha")
    require(eps > 0 && eps < 1, s"eps must be in (0,1), got $eps")
    math.max(1, math.ceil(math.log(eps) / math.log(1 - alpha) - 1).toInt)
  }

  def run(g: AttributedGraph, alpha: Double, t: Int): Result =
    run(g.walkMatrix, g.attrRowNorm, g.attrColNorm, alpha, t)

  /** Matrix-level entry point (Algorithm 2's actual signature). */
  def run(p: SparseMatrix, rr: SparseMatrix, rc: SparseMatrix, alpha: Double, t: Int): Result = {
    val (pf, pb) = propagate(p, rr, rc, alpha, t, 0, rr.cols)
    spmiCols(pf, pf.colSums, 0, pf.rows)
    spmiRows(pb, 0, pb.rows)
    Result(pf, pb)
  }

  /** Algorithm 2 Lines 2–5 on the attribute columns [from, until):
    * P_f ← (1−α)·P·P_f + α·P_f⁽⁰⁾ and P_b ← (1−α)·Pᵀ·P_b + α·P_b⁽⁰⁾,
    * t times, from P_f⁽⁰⁾ = Rr and P_b⁽⁰⁾ = Rc restricted to those columns.
    * Returns the n × (until − from) blocks of P_f⁽ᵗ⁾ and P_b⁽ᵗ⁾. Each column
    * evolves on its own, so blocks concatenate to exactly the full-width
    * result (Lemma 4.1): this is PAPMI's per-block task.
    *
    * Unrolling the printed recurrence gives
    *   P^(t) = α Σ_{ℓ=0..t-1} (1-α)^ℓ P^ℓ P0  +  (1-α)^t P^t P0,
    * i.e. the t-th hop absorbs the whole series tail (rows sum to exactly
    * 1), which differs from Equation (6)'s α Σ_{ℓ=0..t} form by at most
    * (1-α)^t entrywise. We implement the recurrence as printed in
    * Algorithm 2; Lemma 3.1-style bounds hold with ε' = (1-α)^t.
    */
  def propagate(p: SparseMatrix, rr: SparseMatrix, rc: SparseMatrix, alpha: Double, t: Int,
                from: Int, until: Int): (DenseMatrix, DenseMatrix) = {
    require(t >= 1, "need at least one iteration")
    val pf0 = rr.denseCols(from, until)
    val pb0 = rc.denseCols(from, until)
    var pf = pf0
    var pb = pb0
    var l = 1
    while (l <= t) {
      pf = mix(p * pf, pf0, alpha)
      pb = mix(p.tMul(pb), pb0, alpha)
      l += 1
    }
    (pf, pb)
  }

  /** prop ← (1−α)·prop + α·base, in place. */
  private def mix(prop: DenseMatrix, base: DenseMatrix, alpha: Double): DenseMatrix = {
    val a = prop.data
    val b = base.data
    var i = 0
    while (i < a.length) { a(i) = (1 - alpha) * a(i) + alpha * b(i); i += 1 }
    prop
  }

  /** SPMI of the forward distribution (Alg 2 Lines 6–7), in place on rows
    * [from, until): x ← log(n·x/colSums(j) + 1), with n = x.rows and 0 for
    * an all-zero column. `colSums` are those of the whole column, so the
    * rows of a block may be transformed in parallel; x may be any column
    * block of P_f⁽ᵗ⁾ with all n rows.
    */
  def spmiCols(x: DenseMatrix, colSums: Array[Double], from: Int, until: Int): Unit = {
    val n = x.rows
    val w = x.cols
    var i = from
    while (i < until) {
      val off = i * w
      var j = 0
      while (j < w) {
        val s = colSums(j)
        val hat = if (s > 0) x.data(off + j) / s else 0.0
        x.data(off + j) = math.log(n * hat + 1)
        j += 1
      }
      i += 1
    }
  }

  /** SPMI of the backward distribution (Alg 2 Lines 6–7), in place on rows
    * [from, until): x ← log(d·x/rowSum + 1), with d = x.cols and 0 for an
    * all-zero row. x must hold whole rows of P_b⁽ᵗ⁾.
    */
  def spmiRows(x: DenseMatrix, from: Int, until: Int): Unit = {
    val d = x.cols
    var i = from
    while (i < until) {
      val off = i * d
      var s = 0.0
      var j = 0
      while (j < d) { s += x.data(off + j); j += 1 }
      j = 0
      while (j < d) {
        val hat = if (s > 0) x.data(off + j) / s else 0.0
        x.data(off + j) = math.log(d * hat + 1)
        j += 1
      }
      i += 1
    }
  }

  /** The un-normalized truncated walk distributions P_f^{(t)}, P_b^{(t)}
    * of Equation (6) — exposed for Lemma 3.1's bound tests.
    */
  def truncatedDistributions(g: AttributedGraph, alpha: Double, t: Int): (DenseMatrix, DenseMatrix) =
    propagate(g.walkMatrix, g.attrRowNorm, g.attrColNorm, alpha, t, 0, g.d)
}
