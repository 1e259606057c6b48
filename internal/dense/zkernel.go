package dense

import "fmt"

// Complex kernels over the interleaved packed storage. The scalar factors
// stay real (float64): every call site in the factorization and the
// selected-inversion passes uses ±1/0 coefficients, and a real coefficient
// acts componentwise on the interleaved (re, im) words — exactly like
// Scale/AddScaled — so the engine's reduction arithmetic is element-type
// blind.

// Complex products with m·n·k at or below zGemmNaiveMax, or with an inner
// dimension of at most zGemmNaiveMaxK, run the direct interleaved loop:
// measured on an AVX2+FMA machine, the real-view path's per-tile overhead
// loses there (at 6×6×6 the two tie; at 48×48×1 the loop is twice as fast,
// at 48×48×3 the views are).
const (
	zGemmNaiveMax  = 6 * 6 * 6
	zGemmNaiveMaxK = 2
)

// zGemm computes c = alpha*a*b + beta*c on complex matrices. Transposed
// operands are not supported: the complex path always runs the general
// (asymmetric) engine program, whose products are all op-free.
func zGemm(ta, tb Trans, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if ta == DoTrans || tb == DoTrans {
		panic("dense: complex Gemm does not support transposed operands")
	}
	checkElem("Gemm", a, b, c)
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("dense: Gemm shape mismatch a=%dx%d b=%dx%d c=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if beta != 1 {
		if beta == 0 {
			c.Zero()
		} else {
			c.Scale(beta)
		}
	}
	if alpha == 0 || a.Rows == 0 || b.Cols == 0 || a.Cols == 0 {
		return
	}
	if a.Cols <= zGemmNaiveMaxK || int64(a.Rows)*int64(a.Cols)*int64(b.Cols) <= zGemmNaiveMax {
		zGemmNaive(alpha, a, b, c)
		return
	}
	zGemmViews(alpha, a, b, c)
}

// zGemmNaive accumulates c += alpha*a*b with the direct interleaved
// complex triple loop (beta already applied by zGemm).
func zGemmNaive(alpha float64, a, b, c *Matrix) {
	m := a.Rows
	for j := 0; j < b.Cols; j++ {
		cj := c.Data[2*j*m : 2*(j+1)*m]
		for p := 0; p < a.Cols; p++ {
			br := alpha * b.Data[2*(p+j*b.Rows)]
			bi := alpha * b.Data[2*(p+j*b.Rows)+1]
			if br == 0 && bi == 0 {
				continue
			}
			ap := a.Data[2*p*m : 2*(p+1)*m]
			for i := 0; i < m; i++ {
				ar, ai := ap[2*i], ap[2*i+1]
				cj[2*i] += ar*br - ai*bi
				cj[2*i+1] += ar*bi + ai*br
			}
		}
	}
}

// zGemmViews accumulates c += alpha*a*b through the real kernels, reading
// the interleaved storage in place. An m×k complex matrix is a 2m×k real
// matrix Ã whose row 2i holds Re A[i,:] and row 2i+1 holds Im A[i,:]; the
// real and imaginary parts of B are strided views (rs=2, cs=2·ldb). Then
//
//	C̃ += Ã·Re B   gives row 2i: Σ Re A·Re B, row 2i+1: Σ Im A·Re B
//	T  = Ã·Im B   gives row 2i: Σ Re A·Im B, row 2i+1: Σ Im A·Im B
//
// and folding T in — C̃ row 2i −= T row 2i+1, row 2i+1 += T row 2i —
// completes Re C and Im C. Two real products of 2m×n×k carry the 8mnk
// flops of the complex product; T is the only temporary.
func zGemmViews(alpha float64, a, b, c *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	at := view{data: a.Data, rs: 1, cs: 2 * m, r: 2 * m, c: k}
	bre := view{data: b.Data, rs: 2, cs: 2 * k, r: k, c: n}
	bim := bre
	bim.data = b.Data[1:]
	t := GetBuf(2 * m * n)
	clear(t)
	gemmViews(alpha, at, bre, view{data: c.Data, rs: 1, cs: 2 * m, r: 2 * m, c: n})
	gemmViews(alpha, at, bim, view{data: t, rs: 1, cs: 2 * m, r: 2 * m, c: n})
	cd := c.Data[:2*m*n]
	for e := 0; e < len(cd); e += 2 {
		cd[e] -= t[e+1]
		cd[e+1] += t[e]
	}
	PutBuf(t)
}

// zTrsm solves op-free complex triangular systems in place, mirroring the
// real Trsm conventions (Left: op(T)X = B, Right: X·op(T) = B).
func zTrsm(side Side, uplo UpLo, tt Trans, diag Diag, t, b *Matrix) {
	if tt == DoTrans {
		panic("dense: complex Trsm does not support transposed operands")
	}
	checkElem("Trsm", t, b)
	n := t.Rows
	if t.Cols != n {
		panic("dense: Trsm triangular operand not square")
	}
	if side == Left && b.Rows != n || side == Right && b.Cols != n {
		panic("dense: Trsm shape mismatch")
	}
	if side == Left {
		// The solve walks rows of the triangle: copy it row-major once so
		// each dot product reads contiguous words.
		tr := GetBuf(2 * n * n)
		for j := 0; j < n; j++ {
			col := t.Data[2*j*n : 2*(j+1)*n]
			for i := 0; i < n; i++ {
				tr[2*(j+i*n)], tr[2*(j+i*n)+1] = col[2*i], col[2*i+1]
			}
		}
		for j := 0; j < b.Cols; j++ {
			x := b.Data[2*j*n : 2*(j+1)*n]
			if uplo == Lower {
				for i := 0; i < n; i++ {
					ti := tr[2*i*n : 2*(i+1)*n]
					s := complex(x[2*i], x[2*i+1])
					for k := 0; k < i; k++ {
						s -= complex(ti[2*k], ti[2*k+1]) * complex(x[2*k], x[2*k+1])
					}
					if diag == NonUnit {
						s /= complex(ti[2*i], ti[2*i+1])
					}
					x[2*i], x[2*i+1] = real(s), imag(s)
				}
			} else {
				for i := n - 1; i >= 0; i-- {
					ti := tr[2*i*n : 2*(i+1)*n]
					s := complex(x[2*i], x[2*i+1])
					for k := i + 1; k < n; k++ {
						s -= complex(ti[2*k], ti[2*k+1]) * complex(x[2*k], x[2*k+1])
					}
					if diag == NonUnit {
						s /= complex(ti[2*i], ti[2*i+1])
					}
					x[2*i], x[2*i+1] = real(s), imag(s)
				}
			}
		}
		PutBuf(tr)
		return
	}
	m := b.Rows
	for jj := 0; jj < n; jj++ {
		// Lower solves columns from the last; its column j uses the solved
		// columns after it, Upper's those before it.
		j, k0, k1 := jj, 0, jj
		if uplo == Lower {
			j, k0, k1 = n-1-jj, n-jj, n
		}
		xj := b.Data[2*j*m : 2*(j+1)*m]
		tj := t.Data[2*j*n : 2*(j+1)*n]
		for k := k0; k < k1; k++ {
			tr, ti := tj[2*k], tj[2*k+1]
			if tr == 0 && ti == 0 {
				continue
			}
			xk := b.Data[2*k*m : 2*(k+1)*m]
			for i := 0; i < m; i++ {
				vr, vi := xk[2*i], xk[2*i+1]
				xj[2*i] -= tr*vr - ti*vi
				xj[2*i+1] -= tr*vi + ti*vr
			}
		}
		if diag == NonUnit {
			d := complex(tj[2*j], tj[2*j+1])
			for i := 0; i < m; i++ {
				v := complex(xj[2*i], xj[2*i+1]) / d
				xj[2*i], xj[2*i+1] = real(v), imag(v)
			}
		}
	}
}

// zEliminate is eliminate for complex storage: step k of unpivoted LU
// (unit-lower L, upper U packed). The complex-shifted matrices of pole
// expansion, A − zI with Im(z) ≠ 0 and A real diagonally dominant, are
// safely nonsingular.
func zEliminate(a *Matrix, k int) {
	n := a.Rows
	p := a.ZAt(k, k)
	for i := k + 1; i < n; i++ {
		a.ZSet(i, k, a.ZAt(i, k)/p)
	}
	for j := k + 1; j < n; j++ {
		ar, ai := real(a.ZAt(k, j)), imag(a.ZAt(k, j))
		if ar == 0 && ai == 0 {
			continue
		}
		col := a.Data[2*j*n : 2*(j+1)*n]
		lcol := a.Data[2*k*n : 2*(k+1)*n]
		for i := k + 1; i < n; i++ {
			lr, li := lcol[2*i], lcol[2*i+1]
			col[2*i] -= lr*ar - li*ai
			col[2*i+1] -= lr*ai + li*ar
		}
	}
}
