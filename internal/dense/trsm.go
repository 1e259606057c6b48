package dense

// Blocked TRSM: the triangle is processed in trsmNB-wide diagonal blocks —
// scalar solves on the (small) diagonal block, GEMM-kernel updates for the
// off-diagonal rectangles — so almost all of the O(n²·rhs) work runs
// through the tiled kernel. Right-hand sides are independent (columns for
// side == Left, rows for side == Right), so large solves are additionally
// striped across the worker pool; striping does not change the per-side
// arithmetic, so results are bitwise identical to the serial path.
const (
	// trsmNB is the diagonal block width of the blocked algorithm.
	trsmNB = 64
	// trsmBlockN: triangles at or below this order use the scalar solve
	// directly (one diagonal block covers them anyway).
	trsmBlockN = 96
	// parallelTrsmFlops: below this the solve stays on the caller's
	// goroutine.
	parallelTrsmFlops = 1 << 22
	// minTrsmStripe is the smallest right-hand-side stripe per worker.
	minTrsmStripe = 16
)

// Trsm solves a triangular system in place, overwriting b with the solution X:
//
//	side == Left:  op(t) * X = b
//	side == Right: X * op(t) = b
//
// t must be square and its relevant dimension must match b.
func Trsm(side Side, uplo UpLo, tt Trans, diag Diag, t, b *Matrix) {
	if t.Elem == Complex || b.Elem == Complex {
		zTrsm(side, uplo, tt, diag, t, b)
		return
	}
	n := t.Rows
	if t.Cols != n {
		panic("dense: Trsm triangular operand not square")
	}
	if side == Left && b.Rows != n || side == Right && b.Cols != n {
		panic("dense: Trsm shape mismatch")
	}
	rhs := b.Cols
	if side == Right {
		rhs = b.Rows
	}
	if n == 0 || rhs == 0 {
		return
	}
	if TrsmFlops(n, rhs) >= parallelTrsmFlops && rhs >= 2*minTrsmStripe {
		parallelRanges(rhs, minTrsmStripe, func(lo, hi int) {
			trsmRange(side, uplo, tt, diag, t, b, lo, hi)
		})
		return
	}
	trsmRange(side, uplo, tt, diag, t, b, 0, rhs)
}

// trsmRange solves the right-hand-side range [lo, hi) (columns of b for
// Left, rows for Right).
func trsmRange(side Side, uplo UpLo, tt Trans, diag Diag, t, b *Matrix, lo, hi int) {
	if t.Rows <= trsmBlockN {
		// One diagonal block covers the triangle: solve it directly, in
		// trsmNaive's loop order (bitwise equal) but over plain slices.
		td := t
		if tt == DoTrans {
			td = packDiag(t, tt, 0, t.Rows)
		}
		lower := (uplo == Lower) != (tt == DoTrans)
		if side == Left {
			solveDiagLeft(lower, diag, td, b, 0, lo, hi)
		} else {
			solveDiagRight(lower, diag, td, b, 0, lo, hi)
		}
		if td != t {
			PutMatrix(td)
		}
		return
	}
	if side == Left {
		trsmBlockedLeft(uplo, tt, diag, t, b, lo, hi)
	} else {
		trsmBlockedRight(uplo, tt, diag, t, b, lo, hi)
	}
}

// packDiag copies the diagonal block op(t)[d0:d1, d0:d1] into an
// arena-backed dense matrix in op orientation, so the scalar solver can
// address it directly with the effective triangle.
func packDiag(t *Matrix, tt Trans, d0, d1 int) *Matrix {
	nb := d1 - d0
	td := GetMatrixUninit(nb, nb)
	if tt == NoTrans {
		for j := 0; j < nb; j++ {
			src := t.Data[d0+(d0+j)*t.Rows:]
			dst := td.Data[j*nb : j*nb+nb]
			copy(dst, src[:nb])
		}
	} else {
		for j := 0; j < nb; j++ {
			for i := 0; i < nb; i++ {
				td.Data[i+j*nb] = t.Data[(d0+j)+(d0+i)*t.Rows]
			}
		}
	}
	return td
}

// trsmBlockedLeft solves op(t) X = b on columns [lo, hi) of b.
func trsmBlockedLeft(uplo UpLo, tt Trans, diag Diag, t, b *Matrix, lo, hi int) {
	n := t.Rows
	ot := fullView(t, tt)
	bw := fullView(b, NoTrans).cols(lo, hi)
	effLower := (uplo == Lower) != (tt == DoTrans)
	if effLower {
		for d0 := 0; d0 < n; d0 += trsmNB {
			d1 := min(d0+trsmNB, n)
			td := packDiag(t, tt, d0, d1)
			solveDiagLeft(true, diag, td, b, d0, lo, hi)
			PutMatrix(td)
			if d1 < n {
				// b[d1:n] -= op(t)[d1:n, d0:d1] * X[d0:d1]
				gemmBlocked(-1, ot.rows(d1, n).cols(d0, d1), bw.rows(d0, d1), bw.rows(d1, n))
			}
		}
		return
	}
	for d1 := n; d1 > 0; d1 -= trsmNB {
		d0 := max(d1-trsmNB, 0)
		td := packDiag(t, tt, d0, d1)
		solveDiagLeft(false, diag, td, b, d0, lo, hi)
		PutMatrix(td)
		if d0 > 0 {
			// b[0:d0] -= op(t)[0:d0, d0:d1] * X[d0:d1]
			gemmBlocked(-1, ot.rows(0, d0).cols(d0, d1), bw.rows(d0, d1), bw.rows(0, d0))
		}
	}
}

// trsmBlockedRight solves X op(t) = b on rows [lo, hi) of b.
func trsmBlockedRight(uplo UpLo, tt Trans, diag Diag, t, b *Matrix, lo, hi int) {
	n := t.Rows
	ot := fullView(t, tt)
	bw := fullView(b, NoTrans).rows(lo, hi)
	effLower := (uplo == Lower) != (tt == DoTrans)
	if effLower {
		// Column blocks from high to low: X_D T_DD = B_D after removing
		// already-solved higher blocks.
		for d1 := n; d1 > 0; d1 -= trsmNB {
			d0 := max(d1-trsmNB, 0)
			td := packDiag(t, tt, d0, d1)
			solveDiagRight(true, diag, td, b, d0, lo, hi)
			PutMatrix(td)
			if d0 > 0 {
				// b[:, 0:d0] -= X[:, d0:d1] * op(t)[d0:d1, 0:d0]
				gemmBlocked(-1, bw.cols(d0, d1), ot.rows(d0, d1).cols(0, d0), bw.cols(0, d0))
			}
		}
		return
	}
	for d0 := 0; d0 < n; d0 += trsmNB {
		d1 := min(d0+trsmNB, n)
		td := packDiag(t, tt, d0, d1)
		solveDiagRight(false, diag, td, b, d0, lo, hi)
		PutMatrix(td)
		if d1 < n {
			// b[:, d1:n] -= X[:, d0:d1] * op(t)[d0:d1, d1:n]
			gemmBlocked(-1, bw.cols(d0, d1), ot.rows(d0, d1).cols(d1, n), bw.cols(d1, n))
		}
	}
}

// solveDiagLeft solves td * X = b[r0:r0+nb, lo:hi] in place, td dense
// nb×nb in op orientation with the given effective triangle.
func solveDiagLeft(lower bool, diag Diag, td *Matrix, b *Matrix, r0, lo, hi int) {
	nb := td.Rows
	for j := lo; j < hi; j++ {
		x := b.Data[j*b.Rows+r0 : j*b.Rows+r0+nb]
		if lower {
			for i := 0; i < nb; i++ {
				s := x[i]
				ti := td.Data
				for k := 0; k < i; k++ {
					s -= ti[i+k*nb] * x[k]
				}
				if diag == NonUnit {
					s /= ti[i+i*nb]
				}
				x[i] = s
			}
		} else {
			for i := nb - 1; i >= 0; i-- {
				s := x[i]
				ti := td.Data
				for k := i + 1; k < nb; k++ {
					s -= ti[i+k*nb] * x[k]
				}
				if diag == NonUnit {
					s /= ti[i+i*nb]
				}
				x[i] = s
			}
		}
	}
}

// solveDiagRight solves X * td = b[lo:hi, c0:c0+nb] in place, td dense
// nb×nb in op orientation with the given effective triangle.
func solveDiagRight(lower bool, diag Diag, td *Matrix, b *Matrix, c0, lo, hi int) {
	nb := td.Rows
	m := b.Rows
	if lower {
		// b_j determined from highest j downward: b_j = Σ_{k>=j} X_k td_kj.
		for j := nb - 1; j >= 0; j-- {
			xj := b.Data[(c0+j)*m : (c0+j)*m+m]
			for k := j + 1; k < nb; k++ {
				tkj := td.Data[k+j*nb]
				if tkj == 0 {
					continue
				}
				xk := b.Data[(c0+k)*m : (c0+k)*m+m]
				for i := lo; i < hi; i++ {
					xj[i] -= tkj * xk[i]
				}
			}
			if diag == NonUnit {
				d := td.Data[j+j*nb]
				for i := lo; i < hi; i++ {
					xj[i] /= d
				}
			}
		}
		return
	}
	for j := 0; j < nb; j++ {
		xj := b.Data[(c0+j)*m : (c0+j)*m+m]
		for k := 0; k < j; k++ {
			tkj := td.Data[k+j*nb]
			if tkj == 0 {
				continue
			}
			xk := b.Data[(c0+k)*m : (c0+k)*m+m]
			for i := lo; i < hi; i++ {
				xj[i] -= tkj * xk[i]
			}
		}
		if diag == NonUnit {
			d := td.Data[j+j*nb]
			for i := lo; i < hi; i++ {
				xj[i] /= d
			}
		}
	}
}
