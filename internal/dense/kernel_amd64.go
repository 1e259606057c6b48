//go:build amd64

package dense

// hasAsmKernel reports whether the AVX2+FMA assembly micro-kernel can run
// on this machine (requires OS-enabled AVX state, AVX2 and FMA3).
var hasAsmKernel = detectAVX2FMA()

//go:noescape
func dgemmStrided8x4(kc int64, alpha float64, a *float64, astep int64, b *float64, bcol, bstep int64, c *float64, ldc int64)

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// The OS must have enabled XMM+YMM state saving (XCR0 bits 1 and 2).
	xeax, _ := xgetbv0()
	if xeax&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// microKernel computes one mr×nr tile (see microKernelGo for the contract).
// kc must be at least 1. The index checks bound every word the assembly
// kernel touches, so a stride mistake panics instead of reading past a slice.
func microKernel(kc int, alpha float64, a []float64, astep int, b []float64, bcol, bstep int, c []float64, ldc int) {
	if !hasAsmKernel {
		microKernelGo(kc, alpha, a, astep, b, bcol, bstep, c, ldc)
		return
	}
	_ = a[(kc-1)*astep+mr-1]
	_ = b[(nr-1)*bcol+(kc-1)*bstep]
	_ = c[(nr-1)*ldc+mr-1]
	dgemmStrided8x4(int64(kc), alpha, &a[0], int64(astep), &b[0], int64(bcol), int64(bstep), &c[0], int64(ldc))
}
