package dense

import "fmt"

// Cache-blocking parameters (in float64 elements). A kc×nc panel of packed
// B streams from L3, an mc×kc panel of packed A sits in L2, and the kernel
// walks mr-row / nr-column strips that live in L1. DESIGN.md discusses the
// choices.
const (
	blockMC = 128
	blockKC = 256
	blockNC = 1024

	// smallGemmFlops: below this (2·m·n·k) the packing overhead of the
	// blocked path exceeds its benefit and the naive loops win; measured
	// crossover on the reference machine is near an 8–10 wide product.
	smallGemmFlops = 1 << 11

	// parallelGemmFlops: below this a GEMM stays on the caller's
	// goroutine, so small operations pay no dispatch overhead and the
	// engine's P rank goroutines don't oversubscribe the machine.
	parallelGemmFlops = 1 << 22

	// minParallelCols is the smallest column stripe handed to a worker.
	minParallelCols = 32
)

// view is a strided window onto float64 storage: element (i, j) is
// data[i*rs+j*cs]. A column-major operand has rs=1, cs=ld; its transpose
// swaps the strides; the real or imaginary parts of an interleaved complex
// matrix have rs=2, cs=2·ld. The kernels operate on views so TRSM can
// address sub-blocks of the triangle and complex GEMM can read interleaved
// storage without copying.
type view struct {
	data   []float64
	rs, cs int
	r, c   int
}

func fullView(m *Matrix, tr Trans) view {
	if tr == DoTrans {
		return view{data: m.Data, rs: m.Rows, cs: 1, r: m.Cols, c: m.Rows}
	}
	return view{data: m.Data, rs: 1, cs: m.Rows, r: m.Rows, c: m.Cols}
}

// cols restricts the view to columns [j0, j1).
func (v view) cols(j0, j1 int) view {
	w := v
	w.c = j1 - j0
	if j0 > 0 {
		w.data = v.data[j0*v.cs:]
	}
	return w
}

// rows restricts the view to rows [i0, i1).
func (v view) rows(i0, i1 int) view {
	w := v
	w.r = i1 - i0
	if i0 > 0 {
		w.data = v.data[i0*v.rs:]
	}
	return w
}

// Gemm computes c = alpha*op(a)*op(b) + beta*c where op is identity or
// transpose per ta, tb. Shapes must conform; c must be preallocated.
//
// Tiny products use the naive reference loops; the rest run through the
// register-tiled micro-kernel (see gemmViews), split across the package
// worker pool above parallelGemmFlops (see SetWorkers).
func Gemm(ta, tb Trans, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if c.Elem == Complex || a.Elem == Complex || b.Elem == Complex {
		zGemm(ta, tb, alpha, a, b, beta, c)
		return
	}
	am, ak := a.Rows, a.Cols
	if ta == DoTrans {
		am, ak = ak, am
	}
	bk, bn := b.Rows, b.Cols
	if tb == DoTrans {
		bk, bn = bn, bk
	}
	if ak != bk || c.Rows != am || c.Cols != bn {
		panic(fmt.Sprintf("dense: Gemm shape mismatch op(a)=%dx%d op(b)=%dx%d c=%dx%d",
			am, ak, bk, bn, c.Rows, c.Cols))
	}
	if beta != 1 {
		if beta == 0 {
			c.Zero()
		} else {
			c.Scale(beta)
		}
	}
	if alpha == 0 || am == 0 || bn == 0 || ak == 0 {
		return
	}
	if GemmFlops(am, bn, ak) <= smallGemmFlops {
		gemmNaive(ta, tb, alpha, a, b, c)
		return
	}
	gemmViews(alpha, fullView(a, ta), fullView(b, tb), view{data: c.Data, rs: 1, cs: c.Rows, r: am, c: bn})
}

// gemmViews computes cv += alpha*av*bv (cv.rs == 1, no dimension zero).
// Products at or above parallelGemmFlops split their C column stripes
// across the worker pool, each stripe through the packed blocked loop.
// Smaller ones stay on the caller's goroutine; when the k dimension fits
// one panel and A's rows are contiguous (rs == 1) they skip packing and
// read both operands in place. The engine's supernode blocks are at most
// MaxWidth wide, so its products almost all take this path.
func gemmViews(alpha float64, av, bv, cv view) {
	if GemmFlops(av.r, bv.c, av.c) >= parallelGemmFlops {
		parallelRanges(bv.c, minParallelCols, func(j0, j1 int) {
			gemmBlocked(alpha, av, bv.cols(j0, j1), cv.cols(j0, j1))
		})
		return
	}
	if av.rs == 1 && av.c <= blockKC {
		gemmInPlace(alpha, av, bv, cv)
		return
	}
	gemmBlocked(alpha, av, bv, cv)
}

// gemmInPlace computes cv += alpha*av*bv without packing, for av.rs == 1 and
// av.c <= blockKC. Every tile accumulates the whole k range in one kernel
// call, in the same order as gemmBlocked's single k panel, so results are
// bitwise identical to it. Full mr-row strips of A and nr-column strips of
// B are read where they lie. The m mod mr row edge is the last mr rows of A
// read in place with only the new rows kept; the n mod nr column edge
// alike. Only an A with fewer than mr rows or a B with fewer than nr
// columns is copied into an arena buffer.
func gemmInPlace(alpha float64, av, bv, cv view) {
	m, n, k := av.r, bv.c, av.c
	mFull, nFull := m-m%mr, n-n%nr
	// The edge tiles overlap the last full ones: origin at the last mr rows
	// and nr columns.
	iEdge, jEdge := max(m-mr, 0), max(n-nr, 0)
	var aedge, bedge []float64
	a0, astep := av.data, av.cs
	if m < mr {
		// The kernel reads mr rows at every k step. Copy A's whole span
		// with mr-m zeros after it, so the extra rows read the next
		// column's first entries (or the zeros): edge tiles discard them.
		span := (k-1)*av.cs + m
		aedge = GetBuf(span + mr - m)
		clear(aedge[copy(aedge, av.data[:span]):])
		a0 = aedge
	}
	if n < nr {
		bedge = GetBuf(nr * k)
		packB(bv, 0, k, 0, n, bedge)
	}
	// Row blocks of blockMC keep the A rows in use cache-resident while
	// every B strip passes over them, as packA's mc panel does.
	for ic := 0; ic < m; ic += blockMC {
		ie := min(ic+blockMC, m)
		for j := 0; j < n; j += nr {
			j0 := j
			if j == nFull {
				j0 = jEdge
			}
			b, bcol, bstep := bv.data[j0*bv.cs:], bv.cs, bv.rs
			if bedge != nil {
				b, bcol, bstep = bedge, 1, nr
			}
			for i := ic; i < ie; i += mr {
				i0 := i
				if i == mFull {
					i0 = iEdge
				}
				c := cv.data[i0+j0*cv.cs:]
				if i < mFull && j < nFull {
					microKernel(k, alpha, a0[i0:], astep, b, bcol, bstep, c, cv.cs)
				} else {
					edgeTile(k, alpha, a0[i0:], astep, b, bcol, bstep, c, cv.cs, i-i0, min(m-i0, mr), j-j0, min(n-j0, nr))
				}
			}
		}
	}
	if aedge != nil {
		PutBuf(aedge)
	}
	if bedge != nil {
		PutBuf(bedge)
	}
}

// edgeTile handles a partial tile: the kernel computes the full mr×nr tile
// into a scratch block, then only rows [i0, i1) and columns [j0, j1) of it
// are added to c, which addresses the tile's origin.
func edgeTile(kc int, alpha float64, a []float64, astep int, b []float64, bcol, bstep int, c []float64, ldc, i0, i1, j0, j1 int) {
	var tmp [mr * nr]float64
	microKernel(kc, alpha, a, astep, b, bcol, bstep, tmp[:], mr)
	for j := j0; j < j1; j++ {
		cj := c[j*ldc+i0 : j*ldc+i1]
		tj := tmp[j*mr+i0 : j*mr+i1]
		for i := range cj {
			cj[i] += tj[i]
		}
	}
}

// gemmBlocked runs the three-level blocked loop nest over one C stripe:
// cv += alpha*av*bv. Pack buffers come from the package arena, so the
// steady state allocates nothing.
func gemmBlocked(alpha float64, av, bv, cv view) {
	m, n, k := av.r, bv.c, av.c
	mcMax := min(blockMC, (m+mr-1)/mr*mr)
	ncMax := min(blockNC, (n+nr-1)/nr*nr)
	kcMax := min(blockKC, k)
	apack := GetBuf(mcMax * kcMax)
	bpack := GetBuf(ncMax * kcMax)
	for jc := 0; jc < n; jc += blockNC {
		nc := min(blockNC, n-jc)
		for pc := 0; pc < k; pc += blockKC {
			kc := min(blockKC, k-pc)
			packB(bv, pc, kc, jc, nc, bpack)
			for ic := 0; ic < m; ic += blockMC {
				mc := min(blockMC, m-ic)
				packA(av, ic, mc, pc, kc, apack)
				for jr := 0; jr < nc; jr += nr {
					nrr := min(nr, nc-jr)
					bstrip := bpack[(jr/nr)*kc*nr:]
					for ir := 0; ir < mc; ir += mr {
						mrr := min(mr, mc-ir)
						astrip := apack[(ir/mr)*kc*mr:]
						c := cv.data[(ic+ir)+(jc+jr)*cv.cs:]
						if mrr == mr && nrr == nr {
							microKernel(kc, alpha, astrip, mr, bstrip, 1, nr, c, cv.cs)
						} else {
							edgeTile(kc, alpha, astrip, mr, bstrip, 1, nr, c, cv.cs, 0, mrr, 0, nrr)
						}
					}
				}
			}
		}
	}
	PutBuf(bpack)
	PutBuf(apack)
}

// packA copies the mc×kc panel of the view starting at (i0, p0) into
// mr-row strips: strip s holds rows [s*mr, s*mr+mr) k-major,
// dst[s*mr*kc + p*mr + r], zero-padded past mc.
func packA(v view, i0, mc, p0, kc int, dst []float64) {
	for s := 0; s*mr < mc; s++ {
		d := dst[s*mr*kc : (s+1)*mr*kc]
		rows := min(mr, mc-s*mr)
		src := v.data[(i0+s*mr)*v.rs+p0*v.cs:]
		if v.rs == 1 {
			for p := 0; p < kc; p++ {
				col := src[p*v.cs : p*v.cs+rows]
				dp := d[p*mr : p*mr+mr : p*mr+mr]
				for r := range col {
					dp[r] = col[r]
				}
				for r := rows; r < mr; r++ {
					dp[r] = 0
				}
			}
			continue
		}
		for r := 0; r < rows; r++ {
			row := src[r*v.rs:]
			for p := 0; p < kc; p++ {
				d[p*mr+r] = row[p*v.cs]
			}
		}
		for r := rows; r < mr; r++ {
			for p := 0; p < kc; p++ {
				d[p*mr+r] = 0
			}
		}
	}
}

// packB copies the kc×nc panel of the view starting at (p0, j0) into
// nr-column strips: strip s holds columns [s*nr, s*nr+nr) k-major,
// dst[s*nr*kc + p*nr + c], zero-padded past nc.
func packB(v view, p0, kc, j0, nc int, dst []float64) {
	for s := 0; s*nr < nc; s++ {
		d := dst[s*nr*kc : (s+1)*nr*kc]
		cols := min(nr, nc-s*nr)
		src := v.data[p0*v.rs+(j0+s*nr)*v.cs:]
		if v.cs == 1 {
			for p := 0; p < kc; p++ {
				row := src[p*v.rs : p*v.rs+cols]
				dp := d[p*nr : p*nr+nr : p*nr+nr]
				for c := range row {
					dp[c] = row[c]
				}
				for c := cols; c < nr; c++ {
					dp[c] = 0
				}
			}
			continue
		}
		for c := 0; c < cols; c++ {
			col := src[c*v.cs:]
			for p := 0; p < kc; p++ {
				d[p*nr+c] = col[p*v.rs]
			}
		}
		for c := cols; c < nr; c++ {
			for p := 0; p < kc; p++ {
				d[p*nr+c] = 0
			}
		}
	}
}

// Mul returns op(a)*op(b) as a fresh matrix of the operands' element type.
func Mul(ta, tb Trans, a, b *Matrix) *Matrix {
	am := a.Rows
	if ta == DoTrans {
		am = a.Cols
	}
	bn := b.Cols
	if tb == DoTrans {
		bn = b.Rows
	}
	c := NewMatrixElem(am, bn, a.Elem)
	Gemm(ta, tb, 1, a, b, 0, c)
	return c
}
