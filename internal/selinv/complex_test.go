package selinv

import (
	"math/cmplx"
	"testing"

	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

func analyze(g *sparse.Generated, opt etree.Options) *etree.Analysis {
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	return etree.Analyze(g.A.Permute(perm), perm, opt)
}

// selInvShifted factorizes A − zI over the analysis' block pattern and
// runs the selected inversion on it.
func selInvShifted(t *testing.T, an *etree.Analysis, z complex128) (*factor.LU, *Result) {
	t.Helper()
	lu, err := factor.FactorizeShifted(an.A, z, an.BP)
	if err != nil {
		t.Fatal(err)
	}
	return lu, SelInv(lu)
}

// denseShifted builds A − zI as a dense complex matrix.
func denseShifted(an *etree.Analysis, z complex128) *dense.Matrix {
	n := an.A.N
	d := dense.NewComplexMatrix(n, n)
	for j := 0; j < n; j++ {
		for k := an.A.ColPtr[j]; k < an.A.ColPtr[j+1]; k++ {
			d.ZSet(an.A.RowIdx[k], j, complex(an.A.Val[k], 0))
		}
		d.ZAdd(j, j, -z)
	}
	return d
}

// denseShiftedInverse builds (A − zI)⁻¹ densely as the reference.
func denseShiftedInverse(t *testing.T, an *etree.Analysis, z complex128) *dense.Matrix {
	t.Helper()
	inv, err := dense.Inverse(denseShifted(an, z))
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

func checkShiftedAgainstDense(t *testing.T, an *etree.Analysis, z complex128, tol float64) {
	t.Helper()
	_, res := selInvShifted(t, an, z)
	want := denseShiftedInverse(t, an, z)
	part := an.BP.Part
	for _, key := range res.Ainv.Keys() {
		b := res.Ainv.MustGet(key.I, key.J)
		r0, c0 := part.Start[key.I], part.Start[key.J]
		for c := 0; c < b.Cols; c++ {
			for r := 0; r < b.Rows; r++ {
				if d := cmplx.Abs(b.ZAt(r, c) - want.ZAt(r0+r, c0+c)); d > tol {
					t.Fatalf("z=%v block (%d,%d): diff %g", z, key.I, key.J, d)
				}
			}
		}
	}
}

func TestComplexSelInvMatchesDense(t *testing.T) {
	an := analyze(sparse.Grid2D(6, 6, 3), etree.Options{Relax: 2, MaxWidth: 8})
	for _, z := range []complex128{
		complex(0, 1), complex(2, 3), complex(-1, 0.5), complex(0.5, -2),
	} {
		checkShiftedAgainstDense(t, an, z, 1e-8)
	}
}

func TestComplexSelInvVariousMatrices(t *testing.T) {
	for _, g := range []*sparse.Generated{
		sparse.Banded(15, 2, 1),
		sparse.RandomSym(30, 4, 2),
		sparse.DG2D(3, 3, 3, 5),
		sparse.RandomAsym(25, 3, 9),
	} {
		an := analyze(g, etree.Options{MaxWidth: 6})
		checkShiftedAgainstDense(t, an, complex(1, 2), 1e-8)
	}
}

func TestComplexEntryLookup(t *testing.T) {
	an := analyze(sparse.Banded(10, 1, 4), etree.Options{MaxWidth: 2})
	z := complex(0, 1.5)
	_, res := selInvShifted(t, an, z)
	want := denseShiftedInverse(t, an, z)
	for i := 0; i < an.A.N; i++ {
		if v := res.Ainv.ZAt(i, i); cmplx.Abs(v-want.ZAt(i, i)) > 1e-9 {
			t.Fatalf("entry %d: %v want %v", i, v, want.ZAt(i, i))
		}
	}
}

func TestComplexLogDet(t *testing.T) {
	// Compare |det| via pivoted dense LU: real parts of LogDet must agree
	// (the imaginary part is branch-dependent through the pivot product).
	an := analyze(sparse.Grid2D(4, 4, 7), etree.Options{MaxWidth: 4})
	z := complex(0.5, 1)
	lu, _ := selInvShifted(t, an, z)
	d := denseShifted(an, z)
	if _, err := dense.LUPartialPivot(d); err != nil {
		t.Fatal(err)
	}
	wantRe := 0.0
	for i := 0; i < an.A.N; i++ {
		wantRe += real(cmplx.Log(d.ZAt(i, i)))
	}
	got := lu.LogDet()
	if diff := real(got) - wantRe; diff > 1e-8 || diff < -1e-8 {
		t.Fatalf("Re(LogDet) = %g, want %g", real(got), wantRe)
	}
}

func TestComplexSelInvSymmetryOfInverse(t *testing.T) {
	// A symmetric (complex-shifted symmetric) matrix has a symmetric
	// inverse: (A−zI)⁻¹ᵀ = (A−zI)⁻¹ for symmetric A.
	an := analyze(sparse.Grid2D(5, 5, 2), etree.Options{MaxWidth: 5})
	_, res := selInvShifted(t, an, complex(1, 1))
	for _, key := range res.Ainv.Keys() {
		b := res.Ainv.MustGet(key.I, key.J)
		mirror, ok := res.Ainv.Get(key.J, key.I)
		if !ok {
			t.Fatalf("mirror of (%d,%d) missing", key.I, key.J)
		}
		if d := mirror.MaxAbsDiff(b.Transpose()); d > 1e-9 {
			t.Fatalf("inverse not symmetric at block (%d,%d): %g", key.I, key.J, d)
		}
	}
}
