package main

import (
	"fmt"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/pexsi"
	"pselinv/internal/sparse"
)

// PEXSI workload parameters: 16 Matsubara poles at the inverse temperature
// and chemical potential of the repository's batch benchmark.
const (
	pexsiPoles = 16
	pexsiBeta  = 2.0
	pexsiMu    = 50.0
	pexsiProcs = 4
	// pexsiTol bounds the density's relative difference from the serial
	// reference; the batch engine is bit-identical to it by construction,
	// so any nonzero difference beyond rounding of the final sum is a bug.
	pexsiTol = 1e-12
	// Engine runs traced per traced run, on top of the batches.
	pexsiEngineProbes = 3
)

// runPexsi is pexsi_batch_fe3d: repeated 16-pole batches (pexsi.RunBatch)
// on an audikw-character FE3D(5,5,5,3) Hamiltonian (n=375) at P=4 with the
// task DAG and the work balancer. It runs the same engine as dg_selinv_p16
// differently — complex elements, the general plan, canonical-slot
// reductions, DAG scheduling, factorization overlapped pole to pole — and
// is the only workload where the reduction protocol and complex kernels
// dominate. Its traced run ends with the service probe (serveLayers).
func runPexsi(b *bench) error {
	gen := sparse.FE3D(5, 5, 5, 3, b.cfg.Seed)
	poles, err := pexsi.MatsubaraPoles(pexsiPoles, pexsiBeta, pexsiMu)
	if err != nil {
		return err
	}
	ps := planSpec{procs: pexsiProcs, scheme: core.ShiftedBinaryTree, balancer: core.WorkBalancer,
		seed: treeSeed(b.cfg.Seed), symmetric: false}
	cfg := pexsi.BatchConfig{
		Poles: poles, Relax: relax, MaxWidth: maxWidth, Procs: ps.procs,
		Scheme: ps.scheme, Balancer: ps.balancer, DAG: true, Seed: ps.seed, Timeout: engineTimeout,
	}

	// Set-up: a one-pole batch (analysis, plan, first factorization and
	// inversion).
	err = b.timeSetup(func(int) error {
		one := cfg
		one.Poles = poles[:1]
		_, end := b.spans.begin(0, opSetup, "pexsi.RunBatch(1 pole)")
		defer end()
		_, err := pexsi.RunBatch(gen, one)
		return err
	})
	if err != nil {
		return err
	}

	ref, err := pexsi.RunComplex(gen, pexsi.ComplexConfig{Poles: poles, Relax: relax, MaxWidth: maxWidth})
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	// RunBatch exposes no per-rank counters, so the volume metrics, the
	// engine layer metrics and the kernel replay come from a mirror: the
	// same analysis and plan configuration, built here and run one pole at
	// a time. Every batch checks that its first pole's log-determinant is
	// bit-identical to the mirror's, which ties the mirror's ordering,
	// analysis and factorization (not its plan) to RunBatch's.
	p, err := buildPipeline(b.spans, 0, gen, ps, poles[0].Z)
	if err != nil {
		return err
	}
	mirrorLogDet := p.lu.LogDet()

	var stats [][]pexsi.BatchPoleStats
	var batchS []float64
	op := func(keep bool) func(int) opResult {
		return func(i int) opResult {
			id, end := b.spans.begin(0, i, "op")
			defer end()
			_, endRun := b.spans.begin(id, i, "pexsi.RunBatch")
			t0 := time.Now()
			res, err := pexsi.RunBatch(gen, cfg)
			lat := time.Since(t0)
			endRun()
			if err != nil {
				return opResult{err: err}
			}
			if keep {
				stats = append(stats, res.Stats)
				batchS = append(batchS, res.Elapsed.Seconds())
			}
			if got := res.Stats[0].LogDet; got != mirrorLogDet {
				b.incorrect = true
				return opResult{err: fmt.Errorf("first pole's log det %v differs from the mirror's %v: the mirror no longer matches RunBatch", got, mirrorLogDet)}
			}
			if e := relErr(res.Density, ref.Density); e > pexsiTol {
				b.incorrect = true
				return opResult{err: fmt.Errorf("density differs from the serial reference: rel err %.3g > %g", e, pexsiTol)}
			}
			return opResult{lat: lat}
		}
	}

	mark := heapMark()
	t0 := time.Now()
	lats := b.measure(op(false))
	elapsed := time.Since(t0)
	if !b.cfg.Trace {
		b.latencyMetrics(lats, elapsed, len(lats))
		b.allocMetric(mark, len(lats))
		b.okRatio()
		eng := p.tmpl.Rebind(p.lu)
		eng.DAG = true
		res, err := eng.Run(engineTimeout)
		if err != nil {
			return err
		}
		sent, _, _ := worldVolumes(res.World)
		res.Release()
		for r := range sent {
			sent[r] *= pexsiPoles
		}
		b.volumeMetrics(sent)
		b.simMakespan(p.an.BP, ps)
		b.peakRSS()
		return nil
	}

	traced := b.measure(op(true))
	b.set("trace.overhead_ratio", "ratio", median(traced)/median(lats))
	et := newEngineTrace()
	for i := 0; i < pexsiEngineProbes; i++ {
		eng := p.tmpl.Rebind(p.lu)
		eng.DAG = true
		res, err := et.tracedRunSpan(b.spans, eng)
		if err != nil {
			return err
		}
		res.Release()
	}
	b.engineLayers(et, pexsiPoles)
	b.pipelineLayers(p)
	b.kernelLayers(p.an.BP, false, dense.Complex, pexsiPoles)
	b.batchLayers(stats, batchS)
	if err := b.poleFactorLayer(p, poles[1].Z); err != nil {
		return err
	}
	if err := b.serveLayers(); err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	return nil
}

// batchLayers sets the pexsi layer metrics from the traced batches' own
// per-pole statistics.
func (b *bench) batchLayers(stats [][]pexsi.BatchPoleStats, batchS []float64) {
	var fac, inv, alloc, overlap []float64
	for i, st := range stats {
		var sum float64
		for l, s := range st {
			fac = append(fac, s.FactorElapsed.Seconds())
			inv = append(inv, s.InvertElapsed.Seconds())
			sum += (s.FactorElapsed + s.InvertElapsed).Seconds()
			if l > 0 { // the first pole carries the batch's one-time set-up
				alloc = append(alloc, float64(s.AllocBytes)/1e6)
			}
		}
		overlap = append(overlap, sum/batchS[i])
	}
	b.set("pexsi.factor_s_per_pole", "s", median(fac))
	b.set("pexsi.invert_s_per_pole", "s", median(inv))
	b.set("pexsi.overlap", "ratio", median(overlap))
	b.set("pexsi.alloc_mb_per_pole", "MB", median(alloc))
}
