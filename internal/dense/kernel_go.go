package dense

import "math"

// Micro-tile dimensions shared by the GEMM loops and both kernel
// implementations: the kernel computes an mr-row by nr-column tile of C.
const (
	mr = 8
	nr = 4
)

// microKernelGo is the portable register-tiled kernel and the reference the
// assembly kernel is tested against. It computes
//
//	c[i+j*ldc] += alpha * Σ_p a[p*astep+i] * b[j*bcol+p*bstep]   (i<mr, j<nr)
//
// with one fused multiply-add per term into an mr×nr accumulator tile and
// one more to apply alpha, the same roundings as the assembly, so both give
// bitwise identical results. Packed panels use astep=mr, bcol=1, bstep=nr;
// a column-major operand read in place uses astep=lda and bcol=ldb, bstep=1.
func microKernelGo(kc int, alpha float64, a []float64, astep int, b []float64, bcol, bstep int, c []float64, ldc int) {
	var acc [mr * nr]float64
	for p := 0; p < kc; p++ {
		ap := a[p*astep : p*astep+mr : p*astep+mr]
		for j := 0; j < nr; j++ {
			bj := b[j*bcol+p*bstep]
			aj := acc[j*mr : j*mr+mr : j*mr+mr]
			for i := 0; i < mr; i++ {
				aj[i] = math.FMA(ap[i], bj, aj[i])
			}
		}
	}
	for j := 0; j < nr; j++ {
		cj := c[j*ldc : j*ldc+mr : j*ldc+mr]
		aj := acc[j*mr : j*mr+mr : j*mr+mr]
		for i := 0; i < mr; i++ {
			cj[i] = math.FMA(alpha, aj[i], cj[i])
		}
	}
}
