package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/exp"
	"pselinv/internal/factor"
	"pselinv/internal/netsim"
	"pselinv/internal/obs"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
	"pselinv/internal/trace"
)

// Analysis options every workload uses: the library's defaults (Options
// zero value), which the service and the batch engine also run with.
const (
	relax    = 4
	maxWidth = 48
)

// engineTimeout bounds one engine run; an operation that hits it fails.
const engineTimeout = 2 * time.Minute

// simProcs is the rank count of the simulated makespan: a 24×24 grid, the
// paper's largest audikw_1 configuration.
const simProcs = 576

// planSpec fixes everything a communication plan depends on besides the
// pattern.
type planSpec struct {
	procs     int
	scheme    core.Scheme
	balancer  core.Balancer
	seed      uint64
	symmetric bool
}

func (ps planSpec) config() core.PlanConfig {
	return core.PlanConfig{Scheme: ps.scheme, Seed: ps.seed, Symmetric: ps.symmetric, Balancer: ps.balancer}
}

// pipeline is one matrix taken through ordering, symbolic analysis,
// factorization and planning, with the time each layer call took.
type pipeline struct {
	an   *etree.Analysis
	lu   *factor.LU
	plan *core.Plan
	tmpl *pselinv.Engine

	orderS, analyzeS, factorS, planS float64
}

// buildPipeline calls each layer in turn, one span per call under parent.
// A non-zero pole factorizes A − zI (complex elements) instead of A.
func buildPipeline(sp *spanLog, parent int, gen *sparse.Generated, ps planSpec, pole complex128) (*pipeline, error) {
	p := &pipeline{}
	var perm []int
	p.orderS = sp.timed(parent, opSetup, "ordering.Compute", func() {
		perm = ordering.Compute(ordering.NestedDissection, gen.A, gen.Geom)
	})
	p.analyzeS = sp.timed(parent, opSetup, "etree.Analyze", func() {
		p.an = etree.Analyze(gen.A.Permute(perm), perm, etree.Options{Relax: relax, MaxWidth: maxWidth})
	})
	var err error
	p.factorS = sp.timed(parent, opSetup, "factor.Factorize", func() {
		if pole != 0 {
			p.lu, err = factor.FactorizeShifted(p.an.A, pole, p.an.BP)
		} else {
			p.lu, err = factor.Factorize(p.an.A, p.an.BP)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("factorizing %s: %w", gen.Name, err)
	}
	p.planS = sp.timed(parent, opSetup, "core.NewPlanConfig+pselinv.NewEngine", func() {
		p.plan = core.NewPlanConfig(p.an.BP, procgrid.Squarish(ps.procs), ps.config())
		p.tmpl = pselinv.NewEngine(p.plan, nil)
	})
	return p, nil
}

// pipelineLayers sets the ordering, etree, factor and core layer metrics
// from a pipeline (times are that pipeline's single calls).
func (b *bench) pipelineLayers(p *pipeline) {
	b.set("ordering.compute_s", "s", p.orderS)
	b.set("etree.analyze_s", "s", p.analyzeS)
	b.set("factor.factorize_s", "s", p.factorS)
	b.set("core.plan_build_s", "s", p.planS)
	ns := p.an.BP.NumSnodes()
	b.set("etree.supernodes", "count", float64(ns))
	b.set("etree.mean_snode_width", "cols", float64(p.an.A.N)/float64(ns))
	b.set("etree.nnz_l", "count", float64(p.an.BP.NNZScalars()))
	b.set("core.collectives", "count", float64(p.plan.TotalCollectives()))
	flopImb, _ := core.LoadImbalance(p.plan.RankLoads())
	b.set("core.flop_imbalance", "ratio", flopImb)
	b.count("etree.supernodes", float64(ns))
	b.count("etree.nnz_l", float64(p.an.BP.NNZScalars()))
	b.count("core.collectives", float64(p.plan.TotalCollectives()))
	b.count("core.flop_imbalance", flopImb)
}

// poleFactorLayer times one complex factorization A − zI on the
// pipeline's analysis: factor.pole_factor_s.
func (b *bench) poleFactorLayer(p *pipeline, z complex128) error {
	var err error
	d := b.spans.timed(0, opProbe, "factor.FactorizeShifted", func() {
		_, err = factor.FactorizeShifted(p.an.A, z, p.an.BP)
	})
	if err != nil {
		return fmt.Errorf("complex factorization probe: %w", err)
	}
	b.set("factor.pole_factor_s", "s", d)
	return nil
}

// simMakespan simulates the plan at simProcs ranks under the scaled Edison
// network model: sim_makespan_s. Deterministic for a fixed plan.
func (b *bench) simMakespan(bp *etree.BlockPattern, ps planSpec) {
	ps.procs = simProcs
	var ms float64
	b.spans.timed(0, opProbe, "netsim.Simulate", func() {
		plan := core.NewPlanConfig(bp, procgrid.Squarish(simProcs), ps.config())
		ms = netsim.Simulate(plan, exp.ScaledEdisonParams()).Makespan
	})
	b.set("sim_makespan_s", "s", ms)
	b.count("sim_makespan_s", ms)
}

// worldVolumes returns one run's per-rank sent bytes and message totals,
// plus the per-class byte totals.
func worldVolumes(w *simmpi.World) (sent []int64, msgs int64, classBytes map[simmpi.Class]int64) {
	classBytes = map[simmpi.Class]int64{}
	sent = make([]int64, w.P)
	for r := 0; r < w.P; r++ {
		sent[r] = w.TotalSent(r)
		for _, c := range simmpi.Classes() {
			msgs += w.SentMsgs(r, c)
			classBytes[c] += w.SentBytes(r, c)
		}
	}
	return sent, msgs, classBytes
}

// engineTrace accumulates what the engine's own instrumentation reports
// over the traced operations of a run.
type engineTrace struct {
	ops      int
	runS     []float64
	byKind   map[string]float64 // span seconds summed over ranks
	recvWait float64
	maxQueue int
	dagTasks int
	dagOcc   []float64
	msgs     int64
	class    map[simmpi.Class]int64
	// runs holds each traced run's exact counts, for the exact-repeat
	// check.
	runs []runCounts
}

// runCounts are one engine run's message count and per-class bytes.
type runCounts struct{ msgs, colBcast, rowReduce int64 }

func newEngineTrace() *engineTrace {
	return &engineTrace{byKind: map[string]float64{}, class: map[simmpi.Class]int64{}}
}

// tracedRun runs eng once with its trace recorder and obs collector
// attached and folds their output into et.
func (et *engineTrace) tracedRun(eng *pselinv.Engine) (*pselinv.RunResult, error) {
	rec := trace.NewRecorder()
	col := obs.NewCollector(eng.Plan.Grid.Size())
	eng.Trace = rec
	eng.Observer = col
	res, err := eng.Run(engineTimeout)
	if err != nil {
		return nil, err
	}
	et.add(rec.Events(), col.Report(""), res.Elapsed, res.Dag)
	_, msgs, class := worldVolumes(res.World)
	et.msgs += msgs
	for c, v := range class {
		et.class[c] += v
	}
	et.runs = append(et.runs, runCounts{msgs, class[simmpi.ClassColBcast], class[simmpi.ClassRowReduce]})
	return res, nil
}

// tracedRunSpan is tracedRun inside a layer-probe span.
func (et *engineTrace) tracedRunSpan(sp *spanLog, eng *pselinv.Engine) (res *pselinv.RunResult, err error) {
	sp.timed(0, opProbe, "pselinv.Engine.Run(traced)", func() { res, err = et.tracedRun(eng) })
	return res, err
}

// add folds one run's spans, obs report, elapsed time and DAG statistics.
func (et *engineTrace) add(evs []trace.Event, rep *obs.Report, elapsed time.Duration, dag []pselinv.DagRankStats) {
	et.ops++
	et.runS = append(et.runS, elapsed.Seconds())
	sum := trace.SummarizeEvents(evs)
	for k, d := range sum.ByKind {
		et.byKind[k] += d.Seconds()
	}
	if rep != nil {
		et.recvWait += rep.TotalRecvWait().Seconds()
		if q := rep.MaxQueueHWM(); q > et.maxQueue {
			et.maxQueue = q
		}
	}
	occ := 0.0
	for _, d := range dag {
		et.dagTasks += d.Tasks
		occ += d.Occupancy()
	}
	if len(dag) > 0 {
		et.dagOcc = append(et.dagOcc, occ/float64(len(dag)))
	}
}

// engineLayers sets the pselinv and simmpi layer metrics, per operation.
// perOp scales one engine run to one workload operation (16 for a 16-pole
// batch, whose poles all run the same plan).
func (b *bench) engineLayers(et *engineTrace, perOp int64) {
	n := float64(et.ops)
	if n == 0 {
		n = 1
	}
	scale := float64(perOp) / n
	b.set("pselinv.run_s", "s", median(et.runS)*float64(perOp))
	b.set("pselinv.gemm_busy_s", "s", (et.byKind["gemm"]+et.byKind["gemm-u"])*scale)
	b.set("pselinv.trsm_busy_s", "s", (et.byKind["trsm"]+et.byKind["trsm-u"])*scale)
	b.set("pselinv.diag_inverse_busy_s", "s", et.byKind["diag-inverse"]*scale)
	b.set("pselinv.col_bcast_s", "s", et.byKind["col-bcast"]*scale)
	b.set("pselinv.row_reduce_s", "s", et.byKind["row-reduce"]*scale)
	b.set("pselinv.dag_occupancy", "ratio", mean(et.dagOcc))
	b.set("pselinv.dag_tasks", "count", float64(et.dagTasks)*scale)
	b.set("simmpi.msgs_per_op", "count", float64(et.msgs)*scale)
	b.set("simmpi.col_bcast_mb", "MB", float64(et.class[simmpi.ClassColBcast])*scale/1e6)
	b.set("simmpi.row_reduce_mb", "MB", float64(et.class[simmpi.ClassRowReduce])*scale/1e6)
	b.set("simmpi.recv_wait_s", "s", et.recvWait*scale)
	b.set("simmpi.max_queue_depth", "count", float64(et.maxQueue))
	// The exact-repeat check takes each run's integer counts, not the
	// averages above: how many runs were traced depends on timing.
	for _, r := range et.runs {
		b.count("simmpi.msgs_per_op", float64(r.msgs*perOp))
		b.count("simmpi.col_bcast_bytes", float64(r.colBcast*perOp))
		b.count("simmpi.row_reduce_bytes", float64(r.rowReduce*perOp))
	}
}

// gemmShape is one GEMM the selected inversion issues: C(m×n) += A(m×k)·B(k×n).
type gemmShape struct{ m, n, k int }

// trsmShape is one TRSM: a w×w triangle applied to a rows×w block.
type trsmShape struct{ w, rows int }

// kernelShapes derives the second pass's kernel-call histogram from the
// supernode partition: for supernode K of width w with structure C, one
// TRSM per block row I ∈ C and one GEMM (w_J × w_I)·(w_I × w) per pair
// I, J ∈ C — the same walk exp.SelInvFlops counts. The general
// (asymmetric) path issues every call twice, once per triangle.
func kernelShapes(bp *etree.BlockPattern, symmetric bool) (map[gemmShape]int, map[trsmShape]int) {
	gemms := map[gemmShape]int{}
	trsms := map[trsmShape]int{}
	mult := 1
	if !symmetric {
		mult = 2
	}
	part := bp.Part
	for k := 0; k < bp.NumSnodes(); k++ {
		w := part.Width(k)
		c := bp.Struct(k)
		for _, i := range c {
			trsms[trsmShape{w, part.Width(i)}] += mult
			for _, j := range c {
				gemms[gemmShape{part.Width(j), w, part.Width(i)}] += mult
			}
		}
	}
	return gemms, trsms
}

// replayFlops is the replay budget: the histogram is replayed scaled down
// to about this many flops per kernel kind, so a probe stays near a second
// on any stand-in.
const replayFlops = 1.5e9

// kernelLayers replays the workload's kernel-call histogram through
// dense.Gemm/dense.Trsm (real and complex) and times a 512³ GEMM in the
// same run: the dense layer metrics. perOp scales one engine run's flops to
// one workload operation; elem is the workload's element type (a complex
// multiply-add is 4 real ones).
func (b *bench) kernelLayers(bp *etree.BlockPattern, symmetric bool, elem dense.Elem, perOp float64) {
	gemms, trsms := kernelShapes(bp, symmetric)
	var gemmFlops, trsmFlops int64
	for s, c := range gemms {
		gemmFlops += int64(c) * dense.GemmFlops(s.m, s.n, s.k)
	}
	for s, c := range trsms {
		trsmFlops += int64(c) * dense.TrsmFlops(s.w, s.rows)
	}
	rng := rand.New(rand.NewSource(b.cfg.Seed))
	var gr, zr, tr float64
	b.spans.timed(0, opProbe, "dense.Gemm(replay)", func() {
		gr = replayGemm(rng, gemms, gemmFlops, dense.Real)
	})
	b.spans.timed(0, opProbe, "dense.Gemm(complex replay)", func() {
		zr = replayGemm(rng, gemms, gemmFlops, dense.Complex)
	})
	b.spans.timed(0, opProbe, "dense.Trsm(replay)", func() {
		tr = replayTrsm(rng, trsms, trsmFlops)
	})
	var peak float64
	b.spans.timed(0, opProbe, "dense.Gemm(512)", func() { peak = peakGemm(rng) })
	b.set("dense.gemm_gflops", "GFLOP/s", gr)
	b.set("dense.zgemm_gflops", "GFLOP/s", zr)
	b.set("dense.trsm_gflops", "GFLOP/s", tr)
	b.set("dense.peak_gflops", "GFLOP/s", peak)
	b.set("dense.gemm_eff", "ratio", gr/peak)
	flops := float64(gemmFlops+trsmFlops) * perOp
	if elem == dense.Complex {
		flops *= 4
	}
	b.set("dense.flops_per_op", "count", flops)
	b.count("dense.flops_per_op", flops)
}

func randMatrix(rng *rand.Rand, rows, cols int, elem dense.Elem) *dense.Matrix {
	m := dense.NewMatrixElem(rows, cols, elem)
	for i := range m.Data {
		m.Data[i] = rng.Float64() - 0.5
	}
	return m
}

// replayGemm runs each distinct shape count·frac times (at least once),
// frac scaling the histogram to about replayFlops, and returns GFLOP/s.
// A complex multiply-add counts 8 real flops.
func replayGemm(rng *rand.Rand, gemms map[gemmShape]int, total int64, elem dense.Elem) float64 {
	perFlop := int64(1)
	if elem == dense.Complex {
		perFlop = 4
	}
	frac := min(1, replayFlops/float64(total*perFlop))
	var flops int64
	var elapsed time.Duration
	for _, s := range sortedGemmShapes(gemms) {
		reps := max(1, int(float64(gemms[s])*frac+0.5))
		a := randMatrix(rng, s.m, s.k, elem)
		bm := randMatrix(rng, s.k, s.n, elem)
		c := dense.NewMatrixElem(s.m, s.n, elem)
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			dense.Gemm(dense.NoTrans, dense.NoTrans, -1, a, bm, 1, c)
		}
		elapsed += time.Since(t0)
		flops += int64(reps) * dense.GemmFlops(s.m, s.n, s.k) * perFlop
	}
	return float64(flops) / elapsed.Seconds() / 1e9
}

// replayTrsm solves X·L = B for a unit lower triangle L, the engine's
// L̂ = L_{I,K}·L_{K,K}⁻¹ normalization, over the TRSM histogram.
func replayTrsm(rng *rand.Rand, trsms map[trsmShape]int, total int64) float64 {
	frac := min(1, replayFlops/float64(total))
	var flops int64
	var elapsed time.Duration
	for _, s := range sortedTrsmShapes(trsms) {
		reps := max(1, int(float64(trsms[s])*frac+0.5))
		// Off-diagonal entries of order 1/w keep repeated solves bounded.
		t := randMatrix(rng, s.w, s.w, dense.Real)
		for i := range t.Data {
			t.Data[i] /= float64(s.w)
		}
		x := randMatrix(rng, s.rows, s.w, dense.Real)
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			dense.Trsm(dense.Right, dense.Lower, dense.NoTrans, dense.Unit, t, x)
		}
		elapsed += time.Since(t0)
		flops += int64(reps) * dense.TrsmFlops(s.w, s.rows)
	}
	return float64(flops) / elapsed.Seconds() / 1e9
}

// peakGemm is the best of three 512³ real GEMMs on the kernel worker pool.
func peakGemm(rng *rand.Rand) float64 {
	const n = 512
	a := randMatrix(rng, n, n, dense.Real)
	bm := randMatrix(rng, n, n, dense.Real)
	c := dense.NewMatrix(n, n)
	best := 0.0
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		dense.Gemm(dense.NoTrans, dense.NoTrans, 1, a, bm, 0, c)
		best = max(best, float64(dense.GemmFlops(n, n, n))/time.Since(t0).Seconds()/1e9)
	}
	return best
}

func sortedGemmShapes(m map[gemmShape]int) []gemmShape {
	out := make([]gemmShape, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.m != b.m {
			return a.m < b.m
		}
		if a.n != b.n {
			return a.n < b.n
		}
		return a.k < b.k
	})
	return out
}

func sortedTrsmShapes(m map[trsmShape]int) []trsmShape {
	out := make([]trsmShape, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].w != out[j].w {
			return out[i].w < out[j].w
		}
		return out[i].rows < out[j].rows
	})
	return out
}
