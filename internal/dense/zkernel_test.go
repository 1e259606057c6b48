package dense

import (
	"fmt"
	"math/rand"
	"testing"
)

func randZMat(rng *rand.Rand, m, n int) *Matrix {
	a := NewMatrixElem(m, n, Complex)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

// TestZGemmMatchesNaive checks the interleaved real-view path against the
// direct complex loop: tiny and edge shapes, engine-sized blocks, a k
// beyond one panel (packed path) and a product large enough to stripe
// across the worker pool. The real-view path sums Re·Re and Im·Im terms
// separately, so the comparison is at accumulation tolerance relative to
// the largest entry, not bitwise.
func TestZGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := [][3]int{
		{1, 1, 1}, {3, 1, 5}, {7, 3, 2}, {5, 1, 9}, {9, 6, 6},
		{48, 40, 44}, {48, 6, 48}, {6, 6, 48}, {31, 13, 30},
		{20, 9, blockKC + 44}, {128, 64, 128},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		a, b := randZMat(rng, m, k), randZMat(rng, k, n)
		c0 := randZMat(rng, m, n)
		for _, alpha := range []float64{1, -1, 0.5} {
			want, got := GetMatrixCopy(c0), GetMatrixCopy(c0)
			zGemmNaive(alpha, a, b, want)
			zGemmViews(alpha, a, b, got)
			if d := got.MaxAbsDiff(want) / want.MaxAbs(); d > 1e-13 {
				t.Errorf("%dx%dx%d alpha=%g: relative diff %g", m, n, k, alpha, d)
			}
			PutMatrix(want)
			PutMatrix(got)
		}
	}
}

// BenchmarkZGemm compares the public complex GEMM against the direct
// interleaved triple loop on large squares. Complex multiply-add is 8 real
// flops. The 4m/N name is the bench-gate key of the large-product path.
func BenchmarkZGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{256, 512} {
		a := randZMat(rng, n, n)
		x := randZMat(rng, n, n)
		c := NewMatrixElem(n, n, Complex)
		flops := 8 * int64(n) * int64(n) * int64(n)
		b.Run(fmt.Sprintf("4m/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Gemm(NoTrans, NoTrans, 1, a, x, 0, c)
			}
			gf := float64(flops) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gf, "GFLOP/s")
		})
		b.Run(fmt.Sprintf("naive/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Zero()
				zGemmNaive(1, a, x, c)
			}
			gf := float64(flops) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gf, "GFLOP/s")
		})
	}
}
