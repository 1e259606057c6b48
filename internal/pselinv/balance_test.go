package pselinv

import (
	"math"
	"testing"

	"pselinv/internal/blockmat"
	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/procgrid"
	"pselinv/internal/selinv"
	"pselinv/internal/sparse"
)

// balanceTol is the stated agreement between a parallel real run on any
// plan and the serial reference: the owner map decides who computes, who
// forwards and therefore where partial sums are formed, so different
// balancers round differently, but never by more than this.
const balanceTol = 1e-9

// checkAgainstRef asserts every reference block is present in the snapshot
// and within balanceTol of the serial value.
func checkAgainstRef(t *testing.T, ref *selinv.Result, got map[blockmat.Key][]float64, label string) {
	t.Helper()
	if len(got) != ref.Ainv.NumBlocks() {
		t.Fatalf("%s: %d blocks computed, want %d", label, len(got), ref.Ainv.NumBlocks())
	}
	for _, key := range ref.Ainv.Keys() {
		want := ref.Ainv.MustGet(key.I, key.J)
		g, ok := got[blockmat.Key{I: key.I, J: key.J}]
		if !ok {
			t.Fatalf("%s: block (%d,%d) missing", label, key.I, key.J)
		}
		for x := range want.Data {
			if d := math.Abs(g[x] - want.Data[x]); d > balanceTol {
				t.Fatalf("%s: block (%d,%d) off by %g", label, key.I, key.J, d)
			}
		}
	}
}

// TestBalancersByteIdentical pins the balancers against the serial
// reference: the owner map decides who computes and who forwards, never
// what is computed, so every balancer at P ∈ {4, 16} across the paper's
// three schemes must match the sequential result within balanceTol.
// (Partial sums are formed inside the reduce trees, so runs under
// different owner maps are not byte-identical to each other; each one is
// bit-exact for its own plan, which the chaos and DAG tests pin.)
func TestBalancersByteIdentical(t *testing.T) {
	g := sparse.Grid2D(8, 8, 3)
	an, lu, ref := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	for _, dims := range [][2]int{{2, 2}, {4, 4}} {
		grid := procgrid.New(dims[0], dims[1])
		for _, scheme := range []core.Scheme{core.FlatTree, core.BinaryTree, core.ShiftedBinaryTree} {
			for _, b := range core.AllBalancers() {
				got := runPlan(t, core.NewPlanConfig(an.BP, grid, core.PlanConfig{
					Scheme: scheme, Seed: 3, Symmetric: true, Balancer: b,
				}), lu, false)
				checkAgainstRef(t, ref, got, grid.String()+" "+scheme.String()+" "+b.String())
			}
		}
	}
}

// TestBalancersByteIdenticalDag extends the check to task-DAG execution
// with real pool concurrency: each balancer's DAG run is byte-identical to
// its own sequential run, and within balanceTol of the serial reference.
func TestBalancersByteIdenticalDag(t *testing.T) {
	withPoolWorkers(t, 4)
	g := sparse.Grid2D(8, 8, 3)
	an, lu, ref := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	grid := procgrid.New(4, 4)
	for _, b := range core.AllBalancers() {
		mk := func() *core.Plan {
			return core.NewPlanConfig(an.BP, grid, core.PlanConfig{
				Scheme: core.ShiftedBinaryTree, Seed: 3, Symmetric: true, Balancer: b,
			})
		}
		seq := runPlan(t, mk(), lu, false)
		dag := runPlan(t, mk(), lu, true)
		if msg := diffBits(seq, dag); msg != "" {
			t.Fatalf("%v: dag vs sequential: %s", b, msg)
		}
		checkAgainstRef(t, ref, dag, b.String()+" dag")
	}
}

// TestBalancersByteIdenticalAsym covers the general (asymmetric-value)
// path: the Û broadcasts and upper-triangle reductions route through the
// same owner map, so every balancer must match the serial reference there
// too.
func TestBalancersByteIdenticalAsym(t *testing.T) {
	g := sparse.Asymmetrize(sparse.Grid2D(8, 8, 3), 7, 0.6)
	an, lu, ref := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	grid := procgrid.New(4, 4)
	for _, b := range core.AllBalancers() {
		got := runPlan(t, core.NewPlanConfig(an.BP, grid, core.PlanConfig{
			Scheme: core.ShiftedBinaryTree, Seed: 3, Symmetric: false, Balancer: b,
		}), lu, false)
		checkAgainstRef(t, ref, got, b.String()+" asym")
	}
}
