package dense

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// gemmRef computes c = alpha*op(a)*op(b) + beta*c with the retained naive
// reference loops (beta applied up front, exactly as Gemm does).
func gemmRef(ta, tb Trans, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if beta == 0 {
		c.Zero()
	} else if beta != 1 {
		c.Scale(beta)
	}
	if alpha != 0 {
		gemmNaive(ta, tb, alpha, a, b, c)
	}
}

// tolFor scales the parity tolerance with the summation length: the blocked
// kernel reassociates the k-loop (and may use FMA), so the comparison
// budget grows linearly with the inner dimension.
func tolFor(k int) float64 { return 1e-13 * float64(k+4) }

// TestGemmParityBlockedVsNaive drives the public Gemm (which dispatches to
// the blocked, possibly parallel kernel) across shapes, transpose cases and
// scalar combinations, and compares against the naive reference.
func TestGemmParityBlockedVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {3, 2, 4}, {7, 5, 3}, // smaller than a tile
		{8, 4, 16}, {9, 5, 17}, // around the micro-tile
		{31, 33, 29}, {48, 48, 48}, // supernode-sized
		{130, 70, 90}, {129, 131, 257}, // crossing mc/kc block edges
		{64, 200, 300}, {257, 3, 128}, // skinny
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, ta := range []Trans{NoTrans, DoTrans} {
			for _, tb := range []Trans{NoTrans, DoTrans} {
				for _, ab := range [][2]float64{{1, 0}, {-1, 1}, {0.5, -2}, {0, 0.5}} {
					alpha, beta := ab[0], ab[1]
					a := randMat(rng, m, k)
					if ta == DoTrans {
						a = randMat(rng, k, m)
					}
					b := randMat(rng, k, n)
					if tb == DoTrans {
						b = randMat(rng, n, k)
					}
					c0 := randMat(rng, m, n)
					got, want := c0.Clone(), c0.Clone()
					Gemm(ta, tb, alpha, a, b, beta, got)
					gemmRef(ta, tb, alpha, a, b, beta, want)
					if d := got.MaxAbsDiff(want); d > tolFor(k) {
						t.Errorf("m=%d n=%d k=%d ta=%v tb=%v alpha=%g beta=%g: max diff %g",
							m, n, k, ta, tb, alpha, beta, d)
					}
				}
			}
		}
	}
}

// randView returns an r×c view into a larger random backing store: the
// leading dimension exceeds the rows and the window starts at an offset,
// as TRSM's sub-block views do. tr selects transposed storage.
func randView(rng *rand.Rand, r, c int, tr Trans) view {
	i0, j0 := rng.Intn(3), rng.Intn(3)
	sr, sc := r+i0, c+j0
	if tr == DoTrans {
		sr, sc = sc, sr
	}
	back := randMat(rng, sr+rng.Intn(4), sc)
	return fullView(back, tr).rows(i0, i0+r).cols(j0, j0+c)
}

// TestGemmInPlaceMatchesBlocked pins the pack-free path bitwise to the
// packed blocked loop with one k panel, over random shapes, sub-views with
// ld > rows, both B orientations and the alphas the engine issues.
func TestGemmInPlaceMatchesBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for it := 0; it < 200; it++ {
		m, n, k := 1+rng.Intn(70), 1+rng.Intn(70), 1+rng.Intn(blockKC)
		alpha := []float64{1, -1, 0.5}[it%3]
		tb := Trans(rng.Intn(2) == 1)
		av, bv := randView(rng, m, k, NoTrans), randView(rng, k, n, tb)
		cv := randView(rng, m, n, NoTrans)
		want := append([]float64(nil), cv.data...)
		wv := cv
		wv.data = want
		gemmBlocked(alpha, av, bv, wv)
		gemmInPlace(alpha, av, bv, cv)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(cv.data[i]) {
				t.Fatalf("m=%d n=%d k=%d tb=%v alpha=%g: word %d in place %v, blocked %v",
					m, n, k, tb, alpha, i, cv.data[i], want[i])
			}
		}
	}
}

// TestMicroKernelGoMatchesAsm checks the portable kernel bitwise against
// the assembly kernel for packed and in-place strides.
func TestMicroKernelGoMatchesAsm(t *testing.T) {
	if !hasAsmKernel {
		t.Skip("no assembly kernel on this machine")
	}
	rng := rand.New(rand.NewSource(16))
	for it := 0; it < 200; it++ {
		kc := 1 + rng.Intn(blockKC)
		astep, bcol, bstep := mr+rng.Intn(20), 1+rng.Intn(300), 1+rng.Intn(3)
		if it%2 == 0 {
			astep, bcol, bstep = mr, 1, nr
		}
		ldc := mr + rng.Intn(5)
		a := randMat(rng, (kc-1)*astep+mr, 1).Data
		b := randMat(rng, (nr-1)*bcol+(kc-1)*bstep+1, 1).Data
		c := randMat(rng, (nr-1)*ldc+mr, 1).Data
		alpha := []float64{1, -1, 0.5}[it%3]
		want := append([]float64(nil), c...)
		microKernelGo(kc, alpha, a, astep, b, bcol, bstep, want, ldc)
		microKernel(kc, alpha, a, astep, b, bcol, bstep, c, ldc)
		for i := range c {
			if math.Float64bits(want[i]) != math.Float64bits(c[i]) {
				t.Fatalf("kc=%d strides (%d,%d,%d): word %d asm %v, Go %v", kc, astep, bcol, bstep, i, c[i], want[i])
			}
		}
	}
}

// TestGemmSmallNoAllocs pins the warm engine-sized GEMM, real and complex,
// to zero heap allocations: edge buffers and the complex temporary come
// from the arena.
func TestGemmSmallNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(17))
	for _, elem := range []Elem{Real, Complex} {
		// Shapes m×n×k: in place, then with a copied short A and B.
		for _, sh := range [][3]int{{45, 7, 30}, {6, 3, 60}, {3, 3, 30}} {
			m, n, k := sh[0], sh[1], sh[2]
			a, b := NewMatrixElem(m, k, elem), NewMatrixElem(k, n, elem)
			for _, x := range []*Matrix{a, b} {
				for i := range x.Data {
					x.Data[i] = rng.NormFloat64()
				}
			}
			c := NewMatrixElem(m, n, elem)
			Gemm(NoTrans, NoTrans, -1, a, b, 1, c)
			if allocs := testing.AllocsPerRun(100, func() { Gemm(NoTrans, NoTrans, -1, a, b, 1, c) }); allocs != 0 {
				t.Errorf("%s %dx%dx%d Gemm allocates %.1f/op, want 0", elem, m, n, k, allocs)
			}
		}
	}
}

func TestGemmEmptyDims(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range [][3]int{{0, 5, 3}, {5, 0, 3}, {5, 3, 0}, {0, 0, 0}} {
		m, n, k := sh[0], sh[1], sh[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		c := randMat(rng, m, n)
		want := c.Clone()
		want.Scale(0.5)
		Gemm(NoTrans, NoTrans, 2, a, b, 0.5, c)
		if d := c.MaxAbsDiff(want); d != 0 {
			t.Errorf("empty %v: c changed beyond beta scaling (diff %g)", sh, d)
		}
	}
}

// TestTrsmParityBlockedVsNaive forces the blocked triangular solve (order
// above trsmBlockN) in all side/uplo/trans/diag combinations and compares
// against the retained scalar reference; an engine-sized triangle, solved
// in the reference's loop order, must match it bitwise.
func TestTrsmParityBlockedVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{48, trsmBlockN + 5, 2*trsmNB + 17} {
		tol := tolFor(n)
		if n <= trsmBlockN {
			tol = 0
		}
		// Off-diagonals scaled by 1/n keep the solve well conditioned for
		// both diagonal conventions (a random unit triangle would be
		// exponentially ill-conditioned and any two summation orders would
		// legitimately diverge).
		tri := randMat(rng, n, n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i == j {
					tri.Set(i, j, 2)
				} else {
					tri.Set(i, j, tri.At(i, j)/float64(n))
				}
			}
		}
		for _, rhs := range []int{1, 7, 40} {
			for _, side := range []Side{Left, Right} {
				br, bc := n, rhs
				if side == Right {
					br, bc = rhs, n
				}
				b := randMat(rng, br, bc)
				for _, uplo := range []UpLo{Lower, Upper} {
					for _, tt := range []Trans{NoTrans, DoTrans} {
						for _, diag := range []Diag{NonUnit, Unit} {
							got, want := b.Clone(), b.Clone()
							Trsm(side, uplo, tt, diag, tri, got)
							nrhs := bc
							if side == Right {
								nrhs = br
							}
							trsmNaive(side, uplo, tt, diag, tri, want, 0, nrhs)
							scale := want.MaxAbs()
							if scale < 1 {
								scale = 1
							}
							if d := got.MaxAbsDiff(want) / scale; d > tol {
								t.Errorf("n=%d rhs=%d side=%v uplo=%v tt=%v diag=%v: max diff %g",
									n, rhs, side, uplo, tt, diag, d)
							}
						}
					}
				}
			}
		}
	}
}

func TestTrsmEmpty(t *testing.T) {
	tri := NewMatrix(0, 0)
	b := NewMatrix(0, 4)
	Trsm(Left, Lower, NoTrans, NonUnit, tri, b) // must not panic
	tri2 := Eye(4)
	b2 := NewMatrix(4, 0)
	Trsm(Left, Lower, NoTrans, NonUnit, tri2, b2)
}

// TestGemmParallelWorkers exercises the worker-pool dispatch path (flops
// above parallelGemmFlops) with several pool degrees and with concurrent
// callers, as the engine's rank goroutines produce; run under -race this
// doubles as the pool's race test.
func TestGemmParallelWorkers(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(10))
	const n = 160 // 2n³ ≈ 8.2M flops > parallelGemmFlops
	a, b := randMat(rng, n, n), randMat(rng, n, n)
	want := NewMatrix(n, n)
	gemmRef(NoTrans, NoTrans, 1, a, b, 0, want)
	for _, workers := range []int{1, 2, 4} {
		SetWorkers(workers)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := NewMatrix(n, n)
				Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
				if d := c.MaxAbsDiff(want); d > tolFor(n) {
					t.Errorf("workers=%d: max diff %g", workers, d)
				}
			}()
		}
		wg.Wait()
	}
}

// TestTrsmParallelStripes checks that striping right-hand sides across the
// pool leaves the solution bitwise identical to the serial path.
func TestTrsmParallelStripes(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(11))
	const n = 256 // n²·rhs = 16.7M flops > parallelTrsmFlops
	tri := randDiagDom(rng, n)
	b := randMat(rng, n, n)
	serial := b.Clone()
	SetWorkers(1)
	Trsm(Left, Lower, NoTrans, NonUnit, tri, serial)
	striped := b.Clone()
	SetWorkers(4)
	Trsm(Left, Lower, NoTrans, NonUnit, tri, striped)
	if d := striped.MaxAbsDiff(serial); d != 0 {
		t.Errorf("striped solve differs from serial by %g (want bitwise identity)", d)
	}
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	if got := SetWorkers(3); got != 3 || Workers() != 3 {
		t.Errorf("SetWorkers(3) = %d, Workers() = %d", got, Workers())
	}
	if got := SetWorkers(0); got < 1 || Workers() != got {
		t.Errorf("SetWorkers(0) = %d, Workers() = %d", got, Workers())
	}
}

func TestArenaBufClasses(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 1 << 20} {
		s := GetBuf(n)
		if len(s) != n {
			t.Fatalf("GetBuf(%d) len %d", n, len(s))
		}
		if c := cap(s); c&(c-1) != 0 {
			t.Errorf("GetBuf(%d) cap %d not a power of two", n, c)
		}
		PutBuf(s)
	}
}

func TestArenaMatrixZeroedAfterReuse(t *testing.T) {
	m := GetMatrix(20, 20)
	for i := range m.Data {
		m.Data[i] = 42
	}
	PutMatrix(m)
	m2 := GetMatrix(20, 20)
	defer PutMatrix(m2)
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("GetMatrix reuse not zeroed at %d: %g", i, v)
		}
	}
}

func TestGetMatrixCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := randMat(rng, 13, 7)
	cp := GetMatrixCopy(src)
	defer PutMatrix(cp)
	if d := cp.MaxAbsDiff(src); d != 0 {
		t.Fatalf("copy differs by %g", d)
	}
	cp.Data[0] = 999
	if src.Data[0] == 999 {
		t.Fatal("copy aliases source")
	}
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMat(rng, 9, 5)
	tr := GetMatrixUninit(5, 9)
	defer PutMatrix(tr)
	a.TransposeInto(tr)
	if d := tr.MaxAbsDiff(a.Transpose()); d != 0 {
		t.Fatalf("TransposeInto differs by %g", d)
	}
}

func TestNormInfInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMat(rng, 17, 23)
	if got, want := a.NormInf(), a.Transpose().Norm1(); got != want {
		t.Fatalf("NormInf %g, transpose Norm1 %g", got, want)
	}
	if NewMatrix(0, 3).NormInf() != 0 {
		t.Fatal("NormInf of empty matrix not 0")
	}
}

// BenchmarkGemm sweeps square and skinny shapes through the public kernel,
// reporting achieved GFLOP/s; BenchmarkGemmNaive is the retained reference
// kernel at one size for before/after comparison.
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{
		{64, 64, 64}, {128, 128, 128}, {256, 256, 256},
		{512, 512, 512}, {1024, 1024, 1024},
		{1024, 64, 1024}, {64, 1024, 64},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(b *testing.B) {
			a := randMat(rng, m, k)
			x := randMat(rng, k, n)
			c := NewMatrix(m, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(NoTrans, NoTrans, 1, a, x, 0, c)
			}
			gf := float64(GemmFlops(m, n, k)) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gf, "GFLOP/s")
		})
	}
}

// BenchmarkGemmEngineShapes measures the public GEMM at the block shapes
// the selected-inversion engine issues most (supernodes are at most
// MaxWidth=48 wide), real and complex; shapes are m×n×k and a complex
// multiply-add counts as 8 real flops.
func BenchmarkGemmEngineShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{48, 6, 48}, {48, 48, 48}, {48, 30, 48}, {48, 6, 6}, {6, 6, 48}, {48, 12, 48}}
	for _, elem := range []Elem{Real, Complex} {
		for _, sh := range shapes {
			m, n, k := sh[0], sh[1], sh[2]
			b.Run(fmt.Sprintf("%s/%dx%dx%d", elem, m, n, k), func(b *testing.B) {
				a, x := NewMatrixElem(m, k, elem), NewMatrixElem(k, n, elem)
				for _, y := range []*Matrix{a, x} {
					for i := range y.Data {
						y.Data[i] = rng.NormFloat64()
					}
				}
				c := NewMatrixElem(m, n, elem)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Gemm(NoTrans, NoTrans, -1, a, x, 1, c)
				}
				flops := float64(GemmFlops(m, n, k) * int64(2*elem.Width()-1))
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func BenchmarkGemmNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 512
	a := randMat(rng, n, n)
	x := randMat(rng, n, n)
	c := NewMatrix(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Zero()
		gemmNaive(NoTrans, NoTrans, 1, a, x, c)
	}
	gf := float64(GemmFlops(n, n, n)) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gf, "GFLOP/s")
}

func BenchmarkTrsmBlocked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 512
	tri := randDiagDom(rng, n)
	rhs := randMat(rng, n, n)
	x := NewMatrix(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x.Data, rhs.Data)
		Trsm(Left, Lower, NoTrans, NonUnit, tri, x)
	}
	gf := float64(TrsmFlops(n, n)) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gf, "GFLOP/s")
}
