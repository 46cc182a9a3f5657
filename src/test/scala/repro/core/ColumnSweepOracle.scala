package repro.core

/** The Y phase as Algorithm 4 Lines 10–14 write it: for each attribute rj
  * and coordinate l, the exact 1-D minimizer μ_y(rj,l) from column rj of
  * Sf and Sb, then the residual move of that column (Eq 20). It walks Sf
  * and Sb down their columns, so it is slow, but it states the sweep
  * directly; tests check [[SvdCcd.attrSweep]]'s Gram replay against it.
  */
object ColumnSweepOracle {

  def attrSweep(st: SvdCcd.State, attrFrom: Int, attrUntil: Int): Unit = {
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
}
