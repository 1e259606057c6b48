// Complex parity suite: the distributed engine running a complex-shifted
// factorization against the serial selinv reference. Both sides share the
// factorization and the element-generic dense kernels, and a one-rank run
// uses the reference's bracketing exactly, so at P=1 the result must be
// BIT-identical. At P>1 partial sums form inside the reduce trees, so the
// bracketing depends on the plan: every scheme, balancer and DAG setting
// must then agree with the reference to within selinv.RelTol relative to
// its largest entry. The file lives in the external test package so it can
// import internal/chaos/chaostest, which depends on pselinv.
package pselinv_test

import (
	"fmt"
	"testing"

	"pselinv/internal/chaos"
	"pselinv/internal/chaos/chaostest"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
	"pselinv/internal/selinv"
	"pselinv/internal/sparse"
)

// prepComplex analyzes g, factorizes A − zI once, and runs the serial
// reference over that same factorization — the engine under test consumes
// the identical LU object, so any bit difference is the engine's own.
func prepComplex(t testing.TB, g *sparse.Generated, opt etree.Options,
	z complex128) (*etree.Analysis, *factor.LU, *selinv.Result) {
	t.Helper()
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	an := etree.Analyze(g.A.Permute(perm), perm, opt)
	lu, err := factor.FactorizeShifted(an.A, z, an.BP)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return an, lu, selinv.SelInv(lu)
}

// runComplexAndCompare runs the parallel engine and compares every block
// with the serial reference: bit-identical (math.Float64bits on the
// interleaved storage) on one rank, within selinv.RelTol otherwise.
func runComplexAndCompare(t testing.TB, an *etree.Analysis, lu *factor.LU,
	ref *selinv.Result, grid *procgrid.Grid, scheme core.Scheme,
	balancer core.Balancer, dag bool) {
	t.Helper()
	plan := core.NewPlanConfig(an.BP, grid, core.PlanConfig{
		Scheme: scheme, Seed: 1, Symmetric: false, Balancer: balancer,
	})
	eng := pselinv.NewEngine(plan, lu)
	eng.DAG = dag
	res, err := eng.Run(chaosTimeout)
	if err != nil {
		t.Fatalf("grid %v scheme %v balancer %v dag %v: %v", grid, scheme, balancer, dag, err)
	}
	defer res.Release()
	if cerr := res.World.CheckConservation(); cerr != nil {
		t.Fatalf("grid %v scheme %v: %v", grid, scheme, cerr)
	}
	pselinv.CompareToReference(t, fmt.Sprintf("grid %v scheme %v balancer %v dag %v", grid, scheme, balancer, dag),
		ref, res.Ainv, grid.Size() == 1, selinv.RelTol*ref.Scale())
}

// TestComplexParallelBitIdenticalToSerial is the headline parity matrix:
// P ∈ {1, 4} × {flat, binary, shifted} × {cyclic, work}, bit-identical at
// P=1 and within selinv.RelTol at P=4.
func TestComplexParallelBitIdenticalToSerial(t *testing.T) {
	g := sparse.Grid2D(6, 6, 3)
	an, lu, ref := prepComplex(t, g, etree.Options{Relax: 2, MaxWidth: 6}, complex(0.5, 1.5))
	for _, dims := range [][2]int{{1, 1}, {2, 2}} {
		grid := procgrid.New(dims[0], dims[1])
		for _, scheme := range []core.Scheme{core.FlatTree, core.BinaryTree, core.ShiftedBinaryTree} {
			for _, bal := range []core.Balancer{core.CyclicBalancer, core.WorkBalancer} {
				runComplexAndCompare(t, an, lu, ref, grid, scheme, bal, false)
			}
		}
	}
}

// TestComplexParallelDagBitIdentical repeats the parity check with the
// task-DAG scheduler enabled and the worker pool genuinely concurrent.
// (DAG versus sequential on the same plan is bit-identical; the chaos
// sweep and the pexsi batch tests pin that for complex runs.)
func TestComplexParallelDagBitIdentical(t *testing.T) {
	dense.SetWorkers(4)
	defer dense.SetWorkers(0)
	g := sparse.Grid2D(6, 6, 4)
	an, lu, ref := prepComplex(t, g, etree.Options{Relax: 2, MaxWidth: 6}, complex(-0.25, 2))
	for _, dims := range [][2]int{{1, 1}, {2, 2}} {
		for _, bal := range []core.Balancer{core.CyclicBalancer, core.WorkBalancer} {
			runComplexAndCompare(t, an, lu, ref, procgrid.New(dims[0], dims[1]),
				core.ShiftedBinaryTree, bal, true)
		}
	}
}

// TestComplexMatrixZoo runs the parity check across matrix families
// (banded, 3-D grid, random symmetric pattern, DG) on the 2×2 grid.
func TestComplexMatrixZoo(t *testing.T) {
	for _, g := range []*sparse.Generated{
		sparse.Banded(20, 2, 1),
		sparse.Grid3D(3, 3, 3, 2),
		sparse.RandomSym(40, 4, 3),
		sparse.DG2D(3, 3, 3, 4),
	} {
		an, lu, ref := prepComplex(t, g, etree.Options{Relax: 1, MaxWidth: 8}, complex(1, 2))
		runComplexAndCompare(t, an, lu, ref, procgrid.New(2, 2), core.ShiftedBinaryTree,
			core.CyclicBalancer, false)
	}
}

// TestComplexChaosSweep runs the seeded delivery adversary against a
// complex engine: reductions fold in plan order, so every seed must
// reproduce the unperturbed baseline bit for bit.
func TestComplexChaosSweep(t *testing.T) {
	g := sparse.Grid2D(6, 6, 3)
	an, lu, _ := prepComplex(t, g, etree.Options{Relax: 2, MaxWidth: 6}, complex(0.5, 1))
	plan := core.NewPlanConfig(an.BP, procgrid.New(2, 2), core.PlanConfig{
		Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: false,
	})
	eng := pselinv.NewEngine(plan, lu)
	chaostest.Sweep(t, eng, chaos.Config{DupDetect: true},
		chaostest.Seeds(9000, 8), chaosTimeout)
}

// TestComplexSymmetricPlanRejected pins the guard: the symmetric path's
// transpose mirror has no complex kernel, so a complex factorization on a
// symmetric plan must fail loudly instead of producing garbage.
func TestComplexSymmetricPlanRejected(t *testing.T) {
	g := sparse.Grid2D(5, 5, 2)
	an, lu, _ := prepComplex(t, g, etree.Options{MaxWidth: 5}, complex(0, 1))
	plan := core.NewPlan(an.BP, procgrid.New(2, 2), core.ShiftedBinaryTree, 1)
	if _, err := pselinv.NewEngine(plan, lu).Run(chaosTimeout); err == nil {
		t.Fatal("complex factorization on a symmetric plan did not error")
	}
}
