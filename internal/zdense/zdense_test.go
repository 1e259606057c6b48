// Package zdense is the complex-element conformance suite of
// internal/dense. It has no non-test code: it drives dense's public GEMM,
// triangular-solve, LU and inverse entry points with interleaved complex128
// matrices, the storage the pole-expansion (PEXSI) path factors and
// inverts, and checks each against a direct complex computation.
package zdense

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"pselinv/internal/dense"
)

func randMat(rng *rand.Rand, m, n int) *dense.Matrix {
	a := dense.NewComplexMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

func randShifted(rng *rand.Rand, n int) *dense.Matrix {
	// Random + strong imaginary diagonal shift: safely nonsingular and
	// stable for unpivoted LU — the pole-expansion regime.
	a := randMat(rng, n, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += cmplx.Abs(a.ZAt(i, j))
		}
		a.ZAdd(i, i, complex(s+1, s+1))
	}
	return a
}

func eye(n int) *dense.Matrix {
	e := dense.NewComplexMatrix(n, n)
	for i := 0; i < n; i++ {
		e.ZSet(i, i, 1)
	}
	return e
}

// gemmNaive returns alpha*a*b + beta*c by the textbook complex loop.
func gemmNaive(alpha float64, a, b *dense.Matrix, beta float64, c *dense.Matrix) *dense.Matrix {
	want := dense.NewComplexMatrix(a.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			var s complex128
			for k := 0; k < a.Cols; k++ {
				s += a.ZAt(i, k) * b.ZAt(k, j)
			}
			want.ZSet(i, j, complex(alpha, 0)*s+complex(beta, 0)*c.ZAt(i, j))
		}
	}
	return want
}

func mul(a, b *dense.Matrix) *dense.Matrix {
	return dense.Mul(dense.NoTrans, dense.NoTrans, a, b)
}

func TestGemmAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 4, 3)
	b := randMat(rng, 3, 5)
	got := mul(a, b)
	if got.Elem != dense.Complex {
		t.Fatalf("product is %v, want complex", got.Elem)
	}
	want := gemmNaive(1, a, b, 0, dense.NewComplexMatrix(4, 5))
	if d := got.MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("gemm diff %g", d)
	}
}

// TestGemmAlphaBeta checks the real alpha/beta coefficients act on the
// complex product and accumulator as complex scalars would.
func TestGemmAlphaBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 3, 3)
	b := randMat(rng, 3, 3)
	c := randMat(rng, 3, 3)
	c0 := c.Clone()
	alpha, beta := 0.5, -1.25
	dense.Gemm(dense.NoTrans, dense.NoTrans, alpha, a, b, beta, c)
	want := mul(a, b)
	want.Scale(alpha)
	c0.Scale(beta)
	want.AddScaled(1, c0)
	if d := c.MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("alpha/beta gemm diff %g", d)
	}
}

func TestTrsmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 6, 4
	for _, side := range []dense.Side{dense.Left, dense.Right} {
		for _, uplo := range []dense.UpLo{dense.Lower, dense.Upper} {
			for _, dg := range []dense.Diag{dense.NonUnit, dense.Unit} {
				tri := dense.NewComplexMatrix(n, n)
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						if (uplo == dense.Lower && i > j) || (uplo == dense.Upper && i < j) {
							tri.ZSet(i, j, complex(rng.NormFloat64()*0.3, rng.NormFloat64()*0.3))
						}
					}
					tri.ZSet(j, j, complex(2+rng.Float64(), 1))
				}
				var b *dense.Matrix
				if side == dense.Left {
					b = randMat(rng, n, m)
				} else {
					b = randMat(rng, m, n)
				}
				x := b.Clone()
				dense.Trsm(side, uplo, dense.NoTrans, dg, tri, x)
				eff := tri.Clone()
				if dg == dense.Unit {
					for i := 0; i < n; i++ {
						eff.ZSet(i, i, 1)
					}
				}
				var back *dense.Matrix
				if side == dense.Left {
					back = mul(eff, x)
				} else {
					back = mul(x, eff)
				}
				if d := back.MaxAbsDiff(b); d > 1e-9 {
					t.Errorf("side=%v uplo=%v diag=%v residual %g", side, uplo, dg, d)
				}
			}
		}
	}
}

func TestLUAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 12; n++ {
		a := randShifted(rng, n)
		f := a.Clone()
		if err := dense.LU(f); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		inv, err := dense.Inverse(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := mul(a, inv).MaxAbsDiff(eye(n)); d > 1e-9 {
			t.Fatalf("n=%d: |A·A⁻¹ − I| = %g", n, d)
		}
	}
}

func TestLUZeroPivot(t *testing.T) {
	a := dense.NewComplexMatrix(2, 2)
	a.ZSet(0, 1, 1)
	a.ZSet(1, 0, 1)
	if err := dense.LU(a); err == nil {
		t.Fatal("expected zero-pivot error")
	}
}

func TestInverseSingular(t *testing.T) {
	a := dense.NewComplexMatrix(2, 2)
	a.ZSet(0, 0, 1)
	a.ZSet(0, 1, 2)
	a.ZSet(1, 0, 2)
	a.ZSet(1, 1, 4)
	if _, err := dense.Inverse(a); err == nil {
		t.Fatal("expected singularity error")
	}
}

// Property: inversion residual on random shifted complex matrices.
func TestQuickInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randShifted(rng, n)
		inv, err := dense.Inverse(a)
		if err != nil {
			return false
		}
		return mul(inv, a).MaxAbsDiff(eye(n)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGemm4MParity pins the public complex GEMM against the direct complex
// loop on shapes on both sides of the switch from the interleaved loop to
// the real-kernel path (which replaced the former 4M split), with general
// real alpha/beta. The paths sum in different orders, so parity is
// tolerance-level, scaled to the inner-product length.
func TestGemm4MParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alpha, beta := 0.75, -0.5
	for _, dims := range [][3]int{
		{8, 8, 8},
		{32, 32, 32},
		{40, 33, 37},
		{64, 64, 64},
		{128, 16, 16},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		c := randMat(rng, m, n)
		want := gemmNaive(alpha, a, b, beta, c)
		dense.Gemm(dense.NoTrans, dense.NoTrans, alpha, a, b, beta, c)
		if d := c.MaxAbsDiff(want); d > 1e-12*float64(k) {
			t.Fatalf("%dx%dx%d: complex gemm differs from naive by %g", m, k, n, d)
		}
	}
}

// TestGemm4MParityStriped re-runs the parity check with the real kernels'
// worker pool raised, on a product large enough that the real-kernel path
// stripes it across the pool.
func TestGemm4MParityStriped(t *testing.T) {
	dense.SetWorkers(4)
	defer dense.SetWorkers(0)
	rng := rand.New(rand.NewSource(8))
	m, k, n := 128, 96, 128
	a := randMat(rng, m, k)
	b := randMat(rng, k, n)
	c := dense.NewComplexMatrix(m, n)
	want := gemmNaive(1, a, b, 0, c)
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, a, b, 0, c)
	if d := c.MaxAbsDiff(want); d > 1e-12*float64(k) {
		t.Fatalf("striped complex gemm differs from naive by %g", d)
	}
}
