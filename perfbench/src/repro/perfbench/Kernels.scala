package repro.perfbench

/** Operation and memory-traffic counts computed from matrix shapes; nothing
  * here is measured. Bytes count each operand of a kernel pass as read or
  * written once, i.e. the traffic with perfect cache reuse. No peak rate is
  * measured on the machine, so no roofline ratio is derived from these.
  */
object Kernels {

  final case class Count(flops: Double, bytes: Double) {
    def +(o: Count): Count = Count(flops + o.flops, bytes + o.bytes)
    def opsPerByte: Double = flops / bytes
  }

  private val W = 8.0 // bytes per double

  /** APMI (Alg 2): t rounds of P·Pf and Pᵀ·Pb, each followed by the α-mix
    * with the start matrix. Per round and direction: read P (value and
    * column index), read the n×d input, write the product, then read it and
    * the start matrix and write the mix.
    */
  def apmi(nnzP: Long, n: Int, d: Int, t: Int): Count = {
    val nd = n.toDouble * d
    Count(
      flops = t * (4.0 * nnzP * d + 6.0 * nd),
      bytes = t * 2.0 * (12.0 * nnzP + 5 * W * nd))
  }

  /** RandSvd of an m×c operator at sketch width s with q power iterations. */
  def randSvd(m: Int, c: Int, s: Int, q: Int): Count = {
    val mc = m.toDouble * c
    val passes = 2.0 * q + 2 // operator products: sketch, q round trips, projection
    val qrs = (q + 1) * 4.0 * m * s * s + q * 4.0 * c * s * s
    Count(
      flops = 2 * mc * s * passes + qrs + 4.0 * c * s * s + 2.0 * m * s * s,
      bytes = W * (mc * passes + 2.0 * (q + 1) * m * s + 2.0 * q * c * s))
  }

  private def sketch(rows: Int, d: Int, half: Int): Int = math.min(math.min(rows, d), half + 8)

  /** The common tail of both inits: Xb = B'·Y and the two residuals X·Yᵀ − F'. */
  private def residuals(n: Int, d: Int, half: Int): Count = {
    val nd = n.toDouble * d
    Count(flops = 6.0 * nd * half + 2 * nd, bytes = W * 9 * nd)
  }

  /** GreedyInit (Alg 3): RandSvd(F'), Xf = UΣ, then [[residuals]]. */
  def greedyInit(n: Int, d: Int, half: Int, q: Int): Count =
    randSvd(n, d, sketch(n, d, half), q) + Count(n.toDouble * half, 0) + residuals(n, d, half)

  /** SMGreedyInit (Alg 7): RandSvd per node block, merge RandSvd of the
    * stacked right factors, Xf = U_i·W_i, then [[residuals]].
    */
  def smGreedyInit(blockRows: Seq[Int], d: Int, half: Int, q: Int): Count = {
    val n = blockRows.sum
    val stacked = blockRows.length * half
    blockRows.map(r => randSvd(r, d, sketch(r, d, half), q)).reduce(_ + _) +
      randSvd(stacked, d, sketch(stacked, d, half), q) +
      Count(2.0 * n * half * half, 0) + residuals(n, d, half)
  }

  /** One CCD sweep (Alg 4 Lines 3–14): 8 flops per (node, attribute,
    * coordinate) in each phase; each phase reads and writes Sf and Sb once.
    */
  def ccdSweep(n: Int, d: Int, half: Int): Count = {
    val nd = n.toDouble * d
    Count(flops = 16.0 * nd * half, bytes = W * 8 * nd)
  }
}
