// Package selinv implements the sequential selected inversion algorithm
// (Algorithm 1 of the paper) on the supernodal block storage, for real
// factorizations and for the complex-shifted ones of pole expansion alike:
// the element type comes from the factorization and every dense kernel
// dispatches on it. It is the correctness reference for the distributed
// engine in internal/pselinv and the single-process path of the public
// API.
//
// The second pass uses the engine's one-rank bracketing: every
// contribution to a target block accumulates into one zeroed sum with a
// beta=1 GEMM, in ascending structure order, and the sum is negated
// (off-diagonal) or subtracted from the diagonal inverse. A one-rank
// general-plan engine run therefore reproduces this reference bit for bit;
// a multi-rank run also folds partial sums inside the reduce trees and
// agrees to within RelTol.
package selinv

import (
	"math"

	"pselinv/internal/blockmat"
	"pselinv/internal/dense"
	"pselinv/internal/factor"
)

// RelTol is the stated agreement between a parallel run on any plan and
// this reference: the largest entrywise difference, relative to the
// largest entry of the reference (Result.Scale).
const RelTol = 1e-12

// Result holds the outcome of selected inversion.
type Result struct {
	// Ainv stores the selected blocks of A⁻¹, with the factorization's
	// element type: all diagonal blocks, all lower-pattern blocks (I, K),
	// and their upper mirrors (K, I). The blocks live on the dense arena.
	Ainv *blockmat.BlockMatrix
}

// Scale returns the largest magnitude among the stored words (real and
// imaginary parts) of every block: the denominator of RelTol comparisons.
func (r *Result) Scale() float64 {
	s := 0.0
	r.Ainv.Range(func(_ blockmat.Key, m *dense.Matrix) { s = math.Max(s, m.MaxAbs()) })
	return s
}

// Release returns every block of the selected inverse to the dense arena.
// The result must not be used afterwards. Callers that extract what they
// need (like the batch engine's diagonal readout) release each result so
// the next run reuses the same storage; callers that hand the blocks on
// (the root API's Inverse) must not.
func (r *Result) Release() {
	r.Ainv.Range(func(_ blockmat.Key, m *dense.Matrix) { dense.PutMatrix(m) })
	r.Ainv = nil
}

// SelInv runs both passes of Algorithm 1 over a real or complex block LU
// factorization and returns the selected inverse.
func SelInv(lu *factor.LU) *Result {
	bp := lu.BP
	part := bp.Part
	elem := lu.Elem

	// Pass 1: L̂_{I,K} = L_{I,K}·L_KK⁻¹ at (I, K) and Û_{K,I} = U_KK⁻¹·U_{K,I}
	// at (K, I) — disjoint keys, so one block matrix holds both. The
	// normalized copies live on the dense arena and are recycled when the
	// call ends, so repeated inversions reuse their storage.
	hat := blockmat.NewElem(part, elem)
	defer hat.Range(func(_ blockmat.Key, m *dense.Matrix) { dense.PutMatrix(m) })
	for k := bp.NumSnodes() - 1; k >= 0; k-- {
		dk := lu.Diag[k]
		for _, i := range bp.Struct(k) {
			x := dense.GetMatrixCopy(lu.F.MustGet(i, k))
			dense.Trsm(dense.Right, dense.Lower, dense.NoTrans, dense.Unit, dk, x)
			hat.Set(i, k, x)
			y := dense.GetMatrixCopy(lu.F.MustGet(k, i))
			dense.Trsm(dense.Left, dense.Upper, dense.NoTrans, dense.NonUnit, dk, y)
			hat.Set(k, i, y)
		}
	}

	// Pass 2: supernodes in descending order (top-down elimination tree
	// traversal). When processing K, every block A⁻¹_{J,I} with I, J ∈ C(K)
	// has already been finalized by iterations I, J > K.
	ainv := blockmat.NewElem(part, elem)
	for k := bp.NumSnodes() - 1; k >= 0; k-- {
		c := bp.Struct(k)
		wk := part.Width(k)
		// Lower targets: A⁻¹_{J,K} = −Σ_{I∈C} A⁻¹_{J,I}·L̂_{I,K}.
		for _, j := range c {
			sum := dense.GetMatrixElem(part.Width(j), wk, elem)
			for _, i := range c {
				dense.Gemm(dense.NoTrans, dense.NoTrans, 1, ainv.MustGet(j, i), hat.MustGet(i, k), 1, sum)
			}
			sum.Scale(-1)
			ainv.Set(j, k, sum)
		}
		// Upper targets: A⁻¹_{K,J} = −Σ_{I∈C} Û_{K,I}·A⁻¹_{I,J}.
		for _, j := range c {
			sum := dense.GetMatrixElem(wk, part.Width(j), elem)
			for _, i := range c {
				dense.Gemm(dense.NoTrans, dense.NoTrans, 1, hat.MustGet(k, i), ainv.MustGet(i, j), 1, sum)
			}
			sum.Scale(-1)
			ainv.Set(k, j, sum)
		}
		// Diagonal: A⁻¹_{K,K} = (A_KK)⁻¹ − Σ_{J∈C} Û_{K,J}·A⁻¹_{J,K}.
		d := dense.GetMatrixUninitElem(wk, wk, elem)
		lu.DiagInverseTo(k, d)
		if len(c) > 0 {
			sum := dense.GetMatrixElem(wk, wk, elem)
			for _, j := range c {
				dense.Gemm(dense.NoTrans, dense.NoTrans, 1, hat.MustGet(k, j), ainv.MustGet(j, k), 1, sum)
			}
			d.AddScaled(-1, sum)
			dense.PutMatrix(sum)
		}
		ainv.Set(k, k, d)
	}
	return &Result{Ainv: ainv}
}
