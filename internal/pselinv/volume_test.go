package pselinv

import (
	"fmt"
	"testing"

	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/procgrid"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// classOf maps plan op kinds to the engine's accounting classes.
var classOf = map[core.OpKind]simmpi.Class{
	core.OpDiagBcast:  simmpi.ClassDiagBcast,
	core.OpCrossSend:  simmpi.ClassCrossSend,
	core.OpColBcast:   simmpi.ClassColBcast,
	core.OpRowReduce:  simmpi.ClassRowReduce,
	core.OpDiagReduce: simmpi.ClassDiagReduce,
	core.OpSymmSend:   simmpi.ClassSymmSend,
}

// kindClass maps every plan op kind, general path included, to the
// engine's accounting class.
var kindClass = map[core.OpKind]simmpi.Class{
	core.OpDiagBcast:    simmpi.ClassDiagBcast,
	core.OpDiagBcastRow: simmpi.ClassDiagBcast,
	core.OpCrossSend:    simmpi.ClassCrossSend,
	core.OpCrossSendU:   simmpi.ClassCrossSend,
	core.OpColBcast:     simmpi.ClassColBcast,
	core.OpRowBcast:     simmpi.ClassRowBcast,
	core.OpRowReduce:    simmpi.ClassRowReduce,
	core.OpColReduce:    simmpi.ClassColReduce,
	core.OpDiagReduce:   simmpi.ClassDiagReduce,
	core.OpSymmSend:     simmpi.ClassSymmSend,
}

// plannedBytes returns the plan's per-class, per-rank sent and received
// bytes for payloads of ew words per entry (plans size blocks in real
// words).
func plannedBytes(plan *core.Plan, ew int) (sent, recv map[simmpi.Class][]int64) {
	sent, recv = map[simmpi.Class][]int64{}, map[simmpi.Class][]int64{}
	for _, c := range simmpi.Classes() {
		sent[c] = make([]int64, plan.Grid.Size())
		recv[c] = make([]int64, plan.Grid.Size())
	}
	for kind, c := range kindClass {
		s, r := plan.PerRankSent(kind), plan.PerRankRecv(kind)
		for x := range s {
			sent[c][x] += s[x] * int64(ew)
			recv[c][x] += r[x] * int64(ew)
		}
	}
	return sent, recv
}

// TestMeasuredVolumesMatchPlanExactly cross-validates the executed traffic
// against the analytic plan: for every class and rank, the bytes the
// engine sent and received must equal the plan's prediction — on several
// grids and schemes, for a real symmetric and a complex general plan, and
// in every execution variant (sequential or DAG, with or without a chaos
// adversary). Every reduce-tree edge carries one summed block whatever
// the mode, so all four variants move identical per-rank volumes.
func TestMeasuredVolumesMatchPlanExactly(t *testing.T) {
	withPoolWorkers(t, 4)
	g := sparse.Grid2D(9, 8, 6)
	an, lu, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	zlu, err := factor.FactorizeShifted(an.A, complex(0.5, 1.5), an.BP)
	if err != nil {
		t.Fatal(err)
	}
	for _, dims := range [][2]int{{1, 1}, {2, 3}, {4, 4}, {5, 3}} {
		grid := procgrid.New(dims[0], dims[1])
		for _, scheme := range []core.Scheme{core.FlatTree, core.BinaryTree, core.ShiftedBinaryTree} {
			for _, f := range []*factor.LU{lu, zlu} {
				plan := core.NewPlanFull(an.BP, grid, scheme, 9, core.DefaultHybridThreshold, f.Elem == dense.Real)
				wantSent, wantRecv := plannedBytes(plan, f.Elem.Width())
				for _, dag := range []bool{false, true} {
					for _, chaosSeed := range []uint64{0, 77} {
						label := fmt.Sprintf("grid %v scheme %v %v dag=%v chaos=%d", grid, scheme, f.Elem, dag, chaosSeed)
						eng := NewEngine(plan, f)
						eng.DAG = dag
						if chaosSeed != 0 {
							eng.Chaos = &chaos.Config{Seed: chaosSeed, DupDetect: true}
						}
						res, err := eng.Run(testTimeout)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for _, c := range simmpi.Classes() {
							for r := 0; r < res.World.P; r++ {
								if got := res.World.SentBytes(r, c); got != wantSent[c][r] {
									t.Errorf("%s class %v rank %d: sent %d bytes, plan predicts %d",
										label, c, r, got, wantSent[c][r])
								}
								if got := res.World.RecvBytes(r, c); got != wantRecv[c][r] {
									t.Errorf("%s class %v rank %d: received %d bytes, plan predicts %d",
										label, c, r, got, wantRecv[c][r])
								}
							}
						}
						res.Release()
					}
				}
			}
		}
	}
}

// TestVolumesDeterministicPerSeed verifies that the measured per-rank
// volume vector is a pure function of (plan, seed).
func TestVolumesDeterministicPerSeed(t *testing.T) {
	g := sparse.Grid2D(7, 7, 2)
	an, lu, _ := prep(t, g, etree.Options{MaxWidth: 6})
	plan := core.NewPlan(an.BP, procgrid.New(3, 4), core.ShiftedBinaryTree, 1234)
	run := func() []int64 {
		res, err := NewEngine(plan, lu).Run(testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		return res.World.VolumeVector(simmpi.ClassColBcast, true)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("volume vector differs at rank %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestShiftSeedRedistributesVolume verifies the heuristic's core effect:
// different shift seeds move the forwarding load to different ranks while
// the total stays fixed.
func TestShiftSeedRedistributesVolume(t *testing.T) {
	g := sparse.Grid2D(10, 10, 3)
	an, lu, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	grid := procgrid.New(5, 5)
	var prev []int64
	var prevTotal int64
	changed := false
	for seed := uint64(1); seed <= 3; seed++ {
		plan := core.NewPlan(an.BP, grid, core.ShiftedBinaryTree, seed)
		res, err := NewEngine(plan, lu).Run(testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		vec := res.World.VolumeVector(simmpi.ClassColBcast, true)
		var total int64
		for _, v := range vec {
			total += v
		}
		if prev != nil {
			if total != prevTotal {
				t.Fatalf("total Col-Bcast volume changed with seed: %d vs %d", total, prevTotal)
			}
			for i := range vec {
				if vec[i] != prev[i] {
					changed = true
				}
			}
		}
		prev, prevTotal = vec, total
	}
	if !changed {
		t.Fatal("shift seed never changed the per-rank distribution")
	}
}
