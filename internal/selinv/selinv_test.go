package selinv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

func pipeline(t *testing.T, g *sparse.Generated, method ordering.Method, opt etree.Options) (*etree.Analysis, *factor.LU, *Result) {
	t.Helper()
	perm := ordering.Compute(method, g.A, g.Geom)
	an := etree.Analyze(g.A.Permute(perm), perm, opt)
	lu, err := factor.Factorize(an.A, an.BP)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return an, lu, SelInv(lu)
}

// checkAgainstDense verifies every stored block of the selected inverse
// against the dense inverse of the analyzed matrix.
func checkAgainstDense(t *testing.T, an *etree.Analysis, res *Result, tol float64) {
	t.Helper()
	want, err := dense.Inverse(an.A.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	part := an.BP.Part
	for _, key := range res.Ainv.Keys() {
		b := res.Ainv.MustGet(key.I, key.J)
		r0, c0 := part.Start[key.I], part.Start[key.J]
		for c := 0; c < b.Cols; c++ {
			for r := 0; r < b.Rows; r++ {
				got, exp := b.At(r, c), want.At(r0+r, c0+c)
				if d := got - exp; d > tol || d < -tol {
					t.Fatalf("A⁻¹ block (%d,%d) entry (%d,%d): got %g want %g",
						key.I, key.J, r, c, got, exp)
				}
			}
		}
	}
}

func TestSelInvSmallMatrices(t *testing.T) {
	for _, g := range []*sparse.Generated{
		sparse.Banded(10, 1, 1),
		sparse.Banded(14, 3, 2),
		sparse.Grid2D(4, 4, 3),
		sparse.Grid2D(6, 5, 4),
		sparse.RandomSym(25, 3, 5),
		sparse.DG2D(3, 3, 2, 6),
	} {
		an, _, res := pipeline(t, g, ordering.NestedDissection, etree.Options{})
		checkAgainstDense(t, an, res, 1e-8)
	}
}

func TestSelInvAllOrderings(t *testing.T) {
	g := sparse.Grid2D(5, 5, 7)
	for _, m := range []ordering.Method{
		ordering.Natural, ordering.RCM, ordering.NestedDissection, ordering.MinimumDegree,
	} {
		an, _, res := pipeline(t, g, m, etree.Options{})
		checkAgainstDense(t, an, res, 1e-8)
	}
}

func TestSelInvRelaxedSupernodes(t *testing.T) {
	g := sparse.Grid2D(6, 6, 8)
	for _, opt := range []etree.Options{
		{Relax: 2}, {MaxWidth: 2}, {Relax: 3, MaxWidth: 6},
	} {
		an, _, res := pipeline(t, g, ordering.NestedDissection, opt)
		checkAgainstDense(t, an, res, 1e-8)
	}
}

func TestSelInvGrid3D(t *testing.T) {
	g := sparse.Grid3D(3, 3, 3, 9)
	an, _, res := pipeline(t, g, ordering.NestedDissection, etree.Options{Relax: 2})
	checkAgainstDense(t, an, res, 1e-8)
}

func TestSelInvScalarSupernodes(t *testing.T) {
	// Force all-singleton supernodes: the block algorithm degenerates to
	// the scalar algorithm and must still be exact.
	g := sparse.Banded(12, 2, 10)
	an, _, res := pipeline(t, g, ordering.Natural, etree.Options{MaxWidth: 1})
	checkAgainstDense(t, an, res, 1e-8)
}

func TestSymmetryUhatEqualsLhatTransposed(t *testing.T) {
	// For symmetric-valued A, Û_{K,I} == L̂_{I,K}ᵀ (§II-B) — the identity
	// the distributed symmetric code path depends on. L̂ and Û are the
	// pass-1 normalizations, recomputed here from the factor blocks.
	for _, g := range []*sparse.Generated{
		sparse.Grid2D(6, 6, 11), sparse.RandomSym(40, 4, 12),
	} {
		_, lu, _ := pipeline(t, g, ordering.NestedDissection, etree.Options{Relax: 2})
		worst := 0.0
		for k := range lu.Diag {
			for _, i := range lu.BP.Struct(k) {
				lhat := lu.F.MustGet(i, k).Clone()
				dense.Trsm(dense.Right, dense.Lower, dense.NoTrans, dense.Unit, lu.Diag[k], lhat)
				uhat := lu.F.MustGet(k, i).Clone()
				dense.Trsm(dense.Left, dense.Upper, dense.NoTrans, dense.NonUnit, lu.Diag[k], uhat)
				worst = math.Max(worst, uhat.MaxAbsDiff(lhat.Transpose()))
			}
		}
		if worst > 1e-9 {
			t.Errorf("%s: max |Û - L̂ᵀ| = %g", g.Name, worst)
		}
	}
}

func TestSelInvInverseIsSymmetric(t *testing.T) {
	g := sparse.Grid2D(5, 6, 13)
	an, _, res := pipeline(t, g, ordering.NestedDissection, etree.Options{})
	part := an.BP.Part
	for _, key := range res.Ainv.Keys() {
		if key.I < key.J {
			continue
		}
		lower := res.Ainv.MustGet(key.I, key.J)
		upper, ok := res.Ainv.Get(key.J, key.I)
		if !ok {
			t.Fatalf("mirror block (%d,%d) missing", key.J, key.I)
		}
		if d := upper.MaxAbsDiff(lower.Transpose()); d > 1e-9 {
			r0, c0 := part.Start[key.I], part.Start[key.J]
			t.Fatalf("A⁻¹ not symmetric at block (%d,%d) [rows %d cols %d]: %g",
				key.I, key.J, r0, c0, d)
		}
	}
}

func TestSelInvCoversRequestedPattern(t *testing.T) {
	// Every nonzero block of A must have its A⁻¹ block computed (Eq. 1).
	g := sparse.Grid2D(6, 5, 14)
	an, _, res := pipeline(t, g, ordering.NestedDissection, etree.Options{})
	part := an.BP.Part
	a := an.A
	for j := 0; j < a.N; j++ {
		kj := part.SnodeOf[j]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			ki := part.SnodeOf[a.RowIdx[p]]
			if _, ok := res.Ainv.Get(ki, kj); !ok {
				t.Fatalf("selected block (%d,%d) missing from A⁻¹", ki, kj)
			}
		}
	}
}

// Property: selected inversion matches the dense inverse on random
// symmetric diagonally dominant matrices with random analysis options.
func TestQuickSelInvMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := sparse.RandomSym(10+int(r.Int31n(25)), 2+int(r.Int31n(4)), seed)
		method := []ordering.Method{ordering.Natural, ordering.RCM,
			ordering.NestedDissection, ordering.MinimumDegree}[r.Intn(4)]
		perm := ordering.Compute(method, g.A, nil)
		an := etree.Analyze(g.A.Permute(perm), perm,
			etree.Options{Relax: int(r.Int31n(3)), MaxWidth: 1 + int(r.Int31n(8))})
		lu, err := factor.Factorize(an.A, an.BP)
		if err != nil {
			return false
		}
		res := SelInv(lu)
		want, err := dense.Inverse(an.A.ToDense())
		if err != nil {
			return false
		}
		part := an.BP.Part
		for _, key := range res.Ainv.Keys() {
			b := res.Ainv.MustGet(key.I, key.J)
			r0, c0 := part.Start[key.I], part.Start[key.J]
			for c := 0; c < b.Cols; c++ {
				for rr := 0; rr < b.Rows; rr++ {
					d := b.At(rr, c) - want.At(r0+rr, c0+c)
					if d > 1e-7 || d < -1e-7 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSelInv times the serial reference on a real factorization and
// on a complex-shifted one of the same pattern.
func BenchmarkSelInv(b *testing.B) {
	g := sparse.Grid2D(12, 12, 1)
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	an := etree.Analyze(g.A.Permute(perm), perm, etree.Options{Relax: 4, MaxWidth: 24})
	reLU, err := factor.Factorize(an.A, an.BP)
	if err != nil {
		b.Fatal(err)
	}
	zLU, err := factor.FactorizeShifted(an.A, complex(0.5, 1), an.BP)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		lu   *factor.LU
	}{{"real", reLU}, {"complex", zLU}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SelInv(c.lu).Release()
			}
		})
	}
}
