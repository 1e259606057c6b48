//go:build !amd64

package dense

// hasAsmKernel is false on architectures without an assembly micro-kernel;
// the portable Go tile kernel is used instead.
const hasAsmKernel = false

func microKernel(kc int, alpha float64, a []float64, astep int, b []float64, bcol, bstep int, c []float64, ldc int) {
	microKernelGo(kc, alpha, a, astep, b, bcol, bstep, c, ldc)
}
