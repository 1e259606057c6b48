package main

import (
	"fmt"
	"time"

	"pselinv/internal/blockmat"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/pselinv"
	"pselinv/internal/selinv"
	"pselinv/internal/sparse"
)

// dgTol bounds the relative difference between the parallel diagonal and
// the serial reference: arrival-order reductions change only the summation
// order.
const dgTol = 1e-9

// runDG is dg_selinv_p16: warm repeated 16-rank selected inversions of the
// DG_PNF14000 stand-in (DG2DRadius(20,20,6,2), n=2400) on its geometric
// nested-dissection analysis, real symmetric path, shifted binary trees,
// arrival-order reductions. Wide dense supernodes make it GEMM- and
// engine-bound; ordering costs almost nothing, so it is the bypass
// workload for ordering and reduction-protocol changes.
func runDG(b *bench) error {
	gen := sparse.DG2DRadius(20, 20, 6, 2, b.cfg.Seed)
	ps := planSpec{procs: 16, scheme: core.ShiftedBinaryTree, seed: treeSeed(b.cfg.Seed), symmetric: true}

	// Set-up: analysis, factorization and the engine template, then one
	// run (the first template use).
	var p *pipeline
	err := b.timeSetup(func(rep int) error {
		id, end := b.spans.begin(0, opSetup, "setup")
		defer end()
		var err error
		if p, err = buildPipeline(b.spans, id, gen, ps, 0); err != nil {
			return err
		}
		res, err := p.tmpl.Rebind(p.lu).Run(engineTimeout)
		if err != nil {
			return err
		}
		res.Release()
		return nil
	})
	if err != nil {
		return err
	}

	ref := diagOf(selinv.SelInv(p.lu).Ainv, p.an)
	op := func(traced *engineTrace) func(int) opResult {
		return func(i int) opResult {
			id, end := b.spans.begin(0, i, "op")
			defer end()
			eng := p.tmpl.Rebind(p.lu)
			var res *pselinv.RunResult
			var err error
			_, endRun := b.spans.begin(id, i, "pselinv.Engine.Run")
			t0 := time.Now()
			if traced != nil {
				res, err = traced.tracedRun(eng)
			} else {
				res, err = eng.Run(engineTimeout)
			}
			lat := time.Since(t0)
			endRun()
			if err != nil {
				return opResult{err: err}
			}
			defer res.Release()
			sent, msgs, _ := worldVolumes(res.World)
			b.count("op.msgs", float64(msgs))
			if i == 0 && traced == nil {
				b.volumeMetrics(sent)
			}
			if e := relErr(diagOf(res.Ainv, p.an), ref); e > dgTol {
				b.incorrect = true
				return opResult{err: fmt.Errorf("diagonal differs from the serial reference: rel err %.3g > %g", e, dgTol)}
			}
			return opResult{lat: lat}
		}
	}
	mark := heapMark()
	t0 := time.Now()
	lats := b.measure(op(nil))
	elapsed := time.Since(t0)
	if !b.cfg.Trace {
		b.latencyMetrics(lats, elapsed, len(lats))
		b.allocMetric(mark, len(lats))
		b.okRatio()
		b.simMakespan(p.an.BP, ps)
		b.peakRSS()
		return nil
	}
	et := newEngineTrace()
	traced := b.measure(op(et))
	b.set("trace.overhead_ratio", "ratio", median(traced)/median(lats))
	b.engineLayers(et, 1)
	b.pipelineLayers(p)
	b.kernelLayers(p.an.BP, ps.symmetric, dense.Real, 1)
	if err := b.tcpLayers(); err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	return b.poleFactorLayer(p, complex(0, 1))
}

// diagOf extracts diag(A⁻¹) in the original ordering from a gathered block
// inverse.
func diagOf(ainv *blockmat.BlockMatrix, an *etree.Analysis) []float64 {
	d := make([]float64, len(an.PermTotal))
	for orig, p := range an.PermTotal {
		d[orig] = ainv.At(p, p)
	}
	return d
}

// treeSeed derives the tree-construction seed of every plan from the
// workload seed, so each seed runs a different set of shifted trees (and
// per-rank volumes) over the same pattern.
func treeSeed(seed int64) uint64 { return uint64(seed)*0x9E3779B97F4A7C15 | 1 }
