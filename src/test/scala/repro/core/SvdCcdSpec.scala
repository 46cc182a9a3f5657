package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.linalg.DenseMatrix

class SvdCcdSpec extends AnyFunSuite {

  private lazy val aff = Apmi.run(Fixtures.tiny, alpha = 0.5, t = 5)
  private val k = 8

  test("greedyInit residuals are exact: Sf = Xf·Yᵀ − F', Sb = Xb·Yᵀ − B'") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 4)
    val sfExpected = st.xf.mulT(st.y) - aff.fPrime
    val sbExpected = st.xb.mulT(st.y) - aff.bPrime
    assert((st.sf - sfExpected).maxAbs < 1e-9)
    assert((st.sb - sbExpected).maxAbs < 1e-9)
  }

  test("greedyInit Y has orthonormal columns (the unitarity the Xb seed relies on)") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 6)
    val ytY = st.y.tMul(st.y)
    assert((ytY - DenseMatrix.eye(k / 2)).maxAbs < 1e-7)
  }

  test("greedyInit seeds Xb with B'·Y (Algorithm 3 Line 2)") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 4)
    assert((st.xb - (aff.bPrime * st.y)).maxAbs < 1e-12)
  }

  test("greedyInit on an exactly rank-k/2 matrix reconstructs it") {
    val u0 = DenseMatrix.randn(40, 3, 1L)
    val v0 = DenseMatrix.randn(10, 3, 2L)
    val f = u0.mulT(v0)
    val b = DenseMatrix.randn(40, 3, 3L).mulT(v0)
    val st = SvdCcd.greedyInit(f, b, 6, svdIters = 5)
    assert(st.sf.maxAbs < 1e-7) // Xf·Yᵀ = F' exactly in the low-rank case
  }

  test("randomInit produces exact residuals too") {
    val st = SvdCcd.randomInit(aff.fPrime, aff.bPrime, k)
    val sfExpected = st.xf.mulT(st.y) - aff.fPrime
    assert((st.sf - sfExpected).maxAbs < 1e-9)
  }

  test("odd or tiny k is rejected") {
    assertThrows[IllegalArgumentException](SvdCcd.greedyInit(aff.fPrime, aff.bPrime, 7, 2))
    assertThrows[IllegalArgumentException](SvdCcd.randomInit(aff.fPrime, aff.bPrime, 0))
  }

  test("CCD sweeps keep residuals consistent with embeddings") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 3)
    SvdCcd.nodeSweep(st, 0, aff.fPrime.rows)
    SvdCcd.attrSweep(st, 0, aff.fPrime.cols)
    val sfExpected = st.xf.mulT(st.y) - aff.fPrime
    val sbExpected = st.xb.mulT(st.y) - aff.bPrime
    assert((st.sf - sfExpected).maxAbs < 1e-8)
    assert((st.sb - sbExpected).maxAbs < 1e-8)
  }

  test("each CCD sweep decreases (never increases) the objective") {
    val st = SvdCcd.randomInit(aff.fPrime, aff.bPrime, k, seed = 3L)
    var prev = objectiveOf(st)
    for (_ <- 1 to 5) {
      SvdCcd.nodeSweep(st, 0, aff.fPrime.rows)
      val afterNode = objectiveOf(st)
      assert(afterNode <= prev + 1e-8, "node sweep must not increase the objective")
      SvdCcd.attrSweep(st, 0, aff.fPrime.cols)
      val afterAttr = objectiveOf(st)
      assert(afterAttr <= afterNode + 1e-8, "attr sweep must not increase the objective")
      prev = afterAttr
    }
  }

  test("a single coordinate step is the exact 1-D minimizer (spot check)") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 2)
    // Perturb one entry, run the sweep for just that node, and verify the
    // objective cannot be improved by any further move of that coordinate.
    st.xf(0, 0) += 0.5
    // fix residual row for the perturbation
    for (j <- 0 until aff.fPrime.cols) st.sf(0, j) += 0.5 * st.y(j, 0)
    val before = objectiveOf(st)
    SvdCcd.nodeSweep(st, 0, 1)
    val after = objectiveOf(st)
    assert(after <= before + 1e-10)
    // directional check: tiny moves in xf(0,0) cannot improve
    val base = after
    for (delta <- Seq(1e-3, -1e-3)) {
      val st2 = SvdCcd.State(st.xf.copy, st.xb.copy, st.y.copy, st.sf.copy, st.sb.copy)
      st2.xf(0, 0) += delta
      for (j <- 0 until aff.fPrime.cols) st2.sf(0, j) += delta * st2.y(j, 0)
      assert(objectiveOf(st2) >= base - 1e-10)
    }
  }

  test("nodeRowUpdate is bit-identical to nodeSweep") {
    val st1 = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 3)
    val st2 = SvdCcd.State(st1.xf.copy, st1.xb.copy, st1.y.copy, st1.sf.copy, st1.sb.copy)
    SvdCcd.nodeSweep(st1, 0, aff.fPrime.rows)
    val norms = SvdCcd.yColNorms(st2.y)
    val d = aff.fPrime.cols
    for (i <- 0 until aff.fPrime.rows) {
      val xf = st2.xf.row(i); val xb = st2.xb.row(i)
      val sf = st2.sf.row(i); val sb = st2.sb.row(i)
      SvdCcd.nodeRowUpdate(xf, xb, 0, sf, sb, 0, st2.y, norms)
      st2.xf.setRow(i, xf); st2.xb.setRow(i, xb)
      st2.sf.setRow(i, sf); st2.sb.setRow(i, sb)
    }
    assert((st1.xf - st2.xf).maxAbs == 0.0)
    assert((st1.xb - st2.xb).maxAbs == 0.0)
    assert((st1.sf - st2.sf).maxAbs == 0.0)
  }

  test("attrSweep on disjoint column blocks equals one full sweep (PSVDCCD exactness)") {
    val st1 = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 3)
    val st2 = copyOf(st1)
    SvdCcd.attrSweep(st1, 0, aff.fPrime.cols)
    val mid = aff.fPrime.cols / 2
    // run blocks in the opposite order — must not matter
    SvdCcd.attrSweep(st2, mid, aff.fPrime.cols)
    SvdCcd.attrSweep(st2, 0, mid)
    assert((st1.y - st2.y).maxAbs == 0.0)
    assert((st1.sf - st2.sf).maxAbs == 0.0)
    assert((st1.sb - st2.sb).maxAbs == 0.0)
  }

  /** maxAbs of a − b, relative to the largest entry of b. */
  private def relDiff(a: DenseMatrix, b: DenseMatrix): Double = (a - b).maxAbs / math.max(b.maxAbs, 1e-300)

  private def copyOf(st: SvdCcd.State): SvdCcd.State =
    SvdCcd.State(st.xf.copy, st.xb.copy, st.y.copy, st.sf.copy, st.sb.copy)

  test("attrSweep (Gram replay) matches the column-sweep oracle on full, partial and empty blocks") {
    for (gr <- Seq(Fixtures.tiny, Fixtures.mid)) {
      val a = Apmi.run(gr, alpha = 0.5, t = 5)
      val (n, d) = (gr.n, gr.d)
      val mid = d / 2
      val inits = Seq(
        "greedy" -> (() => SvdCcd.greedyInit(a.fPrime, a.bPrime, k, svdIters = 3)),
        "random" -> (() => SvdCcd.randomInit(a.fPrime, a.bPrime, k, seed = 5L)))
      for ((name, init) <- inits; (from, until) <- Seq((0, d), (0, 1), (1, mid), (mid, d), (mid, mid))) {
        val st = init()
        val oracle = copyOf(st)
        for (sweep <- 1 to 3) {
          SvdCcd.nodeSweep(st, 0, n)
          SvdCcd.nodeSweep(oracle, 0, n)
          SvdCcd.attrSweep(st, from, until)
          ColumnSweepOracle.attrSweep(oracle, from, until)
          val where = s"${gr.name}, $name init, block [$from, $until), sweep $sweep"
          assert(relDiff(st.y, oracle.y) <= 1e-9, s"Y: $where")
          assert(relDiff(st.sf, oracle.sf) <= 1e-9, s"Sf: $where")
          assert(relDiff(st.sb, oracle.sb) <= 1e-9, s"Sb: $where")
        }
      }
    }
  }

  test("attrSweep leaves Y[:,l] untouched when Xf[:,l] and Xb[:,l] are all zero") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 3)
    val l0 = 1
    for (i <- 0 until st.xf.rows) { st.xf(i, l0) = 0.0; st.xb(i, l0) = 0.0 }
    val fixed = SvdCcd.State(st.xf, st.xb, st.y,
      st.xf.mulT(st.y) - aff.fPrime, st.xb.mulT(st.y) - aff.bPrime)
    val oracle = copyOf(fixed)
    val yCol0 = (0 until fixed.y.rows).map(fixed.y(_, l0))
    for (_ <- 1 to 3) {
      SvdCcd.attrSweep(fixed, 0, aff.fPrime.cols)
      ColumnSweepOracle.attrSweep(oracle, 0, aff.fPrime.cols)
    }
    assert((0 until fixed.y.rows).map(fixed.y(_, l0)) == yCol0)
    assert(relDiff(fixed.y, oracle.y) <= 1e-9)
    assert(relDiff(fixed.sf, oracle.sf) <= 1e-9)
    assert(relDiff(fixed.sb, oracle.sb) <= 1e-9)
  }

  test("Grams summed over node partitions, then replay and patch, equal one attrSweep") {
    // SparkPane's use of the kernels: per-row arrays at offset 0, one Gram
    // buffer per partition, buffers added on the driver.
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 3)
    SvdCcd.nodeSweep(st, 0, aff.fPrime.rows)
    val parts = copyOf(st)
    SvdCcd.attrSweep(st, 0, aff.fPrime.cols)
    val (n, d, half) = (aff.fPrime.rows, aff.fPrime.cols, k / 2)
    val rows = (0 until n).map(i => (parts.xf.row(i), parts.xb.row(i), parts.sf.row(i), parts.sb.row(i)))
    val grams = Seq((0, n / 2), (n / 2, n)).map { case (from, until) =>
      val g = SvdCcd.gramBuffer(half, d)
      for (i <- from until until) {
        val (xf, xb, sf, sb) = rows(i)
        SvdCcd.gramRow(xf, xb, 0, sf, sb, 0, half, 0, d, g)
      }
      g
    }
    val gram = grams(0).zip(grams(1)).map { case (x, y) => x + y }
    val dyT = SvdCcd.replayY(parts.y, 0, d, gram)
    for (i <- 0 until n) {
      val (xf, xb, sf, sb) = rows(i)
      SvdCcd.patchRow(xf, xb, 0, sf, sb, 0, dyT, 0, d)
      parts.sf.setRow(i, sf)
      parts.sb.setRow(i, sb)
    }
    assert(relDiff(parts.y, st.y) <= 1e-12)
    assert(relDiff(parts.sf, st.sf) <= 1e-12)
    assert(relDiff(parts.sb, st.sb) <= 1e-12)
  }

  test("yColNorms matches direct computation") {
    val y = DenseMatrix.randn(7, 3, 4L)
    val norms = SvdCcd.yColNorms(y)
    for (l <- 0 until 3) {
      val direct = (0 until 7).map(j => y(j, l) * y(j, l)).sum
      assert(math.abs(norms(l) - direct) < 1e-12)
    }
  }

  test("run returns embeddings with the right shapes") {
    val e = SvdCcd.run(aff.fPrime, aff.bPrime, k, iters = 2)
    assert(e.xf.rows == aff.fPrime.rows && e.xf.cols == k / 2)
    assert(e.xb.rows == aff.fPrime.rows && e.xb.cols == k / 2)
    assert(e.y.rows == aff.fPrime.cols && e.y.cols == k / 2)
    assert(e.k == k)
  }

  test("objective matches manual Frobenius computation") {
    val e = SvdCcd.run(aff.fPrime, aff.bPrime, k, iters = 1)
    val o = SvdCcd.objective(aff.fPrime, aff.bPrime, e)
    val rf = e.xf.mulT(e.y) - aff.fPrime
    val rb = e.xb.mulT(e.y) - aff.bPrime
    val manual = rf.data.map(x => x * x).sum + rb.data.map(x => x * x).sum
    assert(math.abs(o - manual) < 1e-6 * math.max(1.0, manual))
  }

  private def objectiveOf(st: SvdCcd.State): Double =
    SvdCcd.objective(aff.fPrime, aff.bPrime, Embeddings(st.xf, st.xb, st.y))
}
