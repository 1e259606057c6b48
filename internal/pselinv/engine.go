// Package pselinv is the distributed-memory parallel selected inversion
// engine: the paper's PSelInv algorithm running over the simulated
// message-passing world of internal/simmpi, with restricted collectives
// organized by the tree schemes of internal/core.
//
// The engine is fully asynchronous within each pass, exactly as §II-B
// describes: there are no barriers between supernodes; synchronization is
// imposed only through data dependencies. Each rank runs an event loop
// that receives messages in whatever order they arrive, forwards broadcast
// data to its tree children, runs local GEMMs as their operands (a
// broadcast L̂ block and a finalized A⁻¹ block) become available, sums
// reductions inside the tree, and finalizes blocks it owns. Supernodes on
// disjoint critical paths of the elimination tree therefore proceed
// concurrently and pipeline.
//
// Reductions follow one protocol. Each reduce-tree node accumulates its
// local contributions straight into one sum, in ascending canonical slot
// order (the contributor's block-row position within the supernode
// structure C); a contribution whose operands arrive early waits for its
// turn. The node then folds its children's partial sums in Tree.Children
// order and forwards one block to its parent, or finalizes it at the root.
// Every floating-point operation therefore happens in an order fixed by
// the plan, so a run is bit-exact for a fixed plan under any message
// delivery order or worker-pool schedule, and the wire volume is the
// paper's: one block per tree edge.
package pselinv

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"pselinv/internal/blockmat"
	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/factor"
	"pselinv/internal/simmpi"
	"pselinv/internal/trace"
)

// blockKey identifies a block (I, J) in per-rank maps.
type blockKey struct{ I, J int }

// gemmDesc is one local matrix product assigned to a rank:
// A⁻¹_{J,I}·L̂_{I,K} for a Row-Reduce, Û_{K,I}·A⁻¹_{I,J} for a Col-Reduce.
type gemmDesc struct{ K, I, J int }

// redKind names the three reductions of pass 2.
type redKind uint8

const (
	redRow  redKind = iota // Row-Reduce onto A⁻¹_{J,K}: Σ A⁻¹_{J,I}·L̂_{I,K}
	redCol                 // Col-Reduce onto A⁻¹_{K,J}: Σ Û_{K,I}·A⁻¹_{I,J}
	redDiag                // Diag-Reduce onto A⁻¹_{K,K}: Σ L̂ᵀ_{J,K}·A⁻¹_{J,K} (Û_{K,J} on the general path)
)

var (
	redClass    = [...]simmpi.Class{simmpi.ClassRowReduce, simmpi.ClassColReduce, simmpi.ClassDiagReduce}
	redSpanKind = [...]string{"row-reduce", "col-reduce", "diag-reduce"}
	gemmKind    = [...]string{"gemm", "gemm-u", "gemm"}
)

// redKey identifies one reduction: (kind, K, J), with J = K for Diag-Reduce.
type redKey struct {
	kind redKind
	K, J int
}

// chain is the half-open range [lo, hi) of one reduction's local
// contributions within a per-rank list (tasks, tasksU or diagJ), in
// ascending canonical slot order.
type chain struct{ lo, hi int32 }

// rankProgram is the immutable per-rank role description derived centrally
// from the communication plan (so that setup cost is proportional to the
// plan size, not plan size × ranks).
type rankProgram struct {
	expect1 int // messages this rank receives in pass 1
	expect2 int // messages this rank receives in pass 2
	nreds   int // reductions this rank takes part in (sizes rankState.reds)

	diagRoots []int         // supernodes whose diagonal block this rank owns (C non-empty)
	trsmByK   map[int][]int // K -> block rows I of owned L blocks to normalize
	crossSrcs []blockKey    // (I, K): owned L̂ blocks to cross-send at pass-2 start
	leafDiags []int         // supernodes with empty C whose diagonal this rank owns

	tasks   []gemmDesc         // grouped by (K, J), ascending I within a group
	byKI    map[blockKey][]int // (K, I) -> task indices waiting on that broadcast
	byBlock map[blockKey][]int // (J, I) -> task indices waiting on that A⁻¹ block

	diagJ []int // block rows J of owned Diag-Reduce contributions, grouped by K, ascending

	// chains locates each reduction's local contributions: a range of
	// tasks (Row-Reduce), tasksU (Col-Reduce) or diagJ (Diag-Reduce).
	chains map[redKey]chain

	// Asymmetric (general) path only:
	trsmUByK   map[int][]int      // K -> block cols I of owned U blocks to normalize
	crossUSrcs []blockKey         // (K, I): owned Û blocks to cross-send at pass-2 start
	tasksU     []gemmDesc         // Û_{K,I}·A⁻¹_{I,J} products, grouped by (K, J)
	byKIU      map[blockKey][]int // (K, I) -> U-task indices waiting on that row broadcast
	byBlockU   map[blockKey][]int // (I, J) -> U-task indices waiting on that A⁻¹ block
}

// extend appends list index x to the chain of key. Callers append each
// reduction's contributions consecutively, so the chain stays contiguous.
func (pr *rankProgram) extend(key redKey, x int) {
	c, ok := pr.chains[key]
	if !ok {
		c.lo = int32(x)
	}
	c.hi = int32(x + 1)
	pr.chains[key] = c
}

// Engine executes parallel selected inversion for one (plan, factorization)
// pair. It is safe to Run multiple times; each run gets fresh state.
type Engine struct {
	Plan     *core.Plan
	LU       *factor.LU
	programs []*rankProgram
	// heights holds each supernode's elimination-tree height, the
	// critical-path dispatch priority of DAG mode (immutable, shared by
	// Rebind like the programs).
	heights []int
	// Trace, when non-nil, records a per-rank execution timeline of the
	// run (see internal/trace); set it before calling Run.
	Trace *trace.Recorder
	// Observer, when non-nil, is installed on each run's world and receives
	// per-message telemetry (internal/obs provides the collecting
	// implementation); set it before calling Run. Observer state is
	// per-run: use a fresh instance for every run.
	Observer simmpi.Observer
	// Chaos, when non-nil, installs a seeded delivery adversary
	// (internal/chaos) on each run's world.
	Chaos *chaos.Config
	// DAG schedules each rank's TRSM/GEMM-sized compute as a task DAG on
	// the shared dense worker pool (see dag.go), overlapping it with the
	// tree collectives that stay on the rank goroutine. Each reduction
	// keeps at most one contribution in flight, so the result is
	// byte-identical to a sequential run of the same plan.
	DAG bool
	// Transport, when non-nil, supplies the communication substrate for
	// each Run (the default is the in-process goroutine transport). The
	// factory receives the grid size; internal/netsim uses this to wrap
	// the in-process transport with a link-latency model. For one-rank-
	// per-process backends use RunWorld directly with a world built on the
	// process's transport.
	Transport func(p int) simmpi.Transport
}

// NewEngine derives the per-rank programs from the plan.
func NewEngine(plan *core.Plan, lu *factor.LU) *Engine {
	p := plan.Grid.Size()
	progs := make([]*rankProgram, p)
	for r := range progs {
		progs[r] = &rankProgram{
			trsmByK:  map[int][]int{},
			byKI:     map[blockKey][]int{},
			byBlock:  map[blockKey][]int{},
			chains:   map[redKey]chain{},
			trsmUByK: map[int][]int{},
			byKIU:    map[blockKey][]int{},
			byBlockU: map[blockKey][]int{},
		}
	}
	grid := plan.Owners
	for _, sp := range plan.Snodes {
		k := sp.K
		diagOwner := grid.OwnerOfBlock(k, k)
		if len(sp.C) == 0 {
			progs[diagOwner].leafDiags = append(progs[diagOwner].leafDiags, k)
			continue
		}
		progs[diagOwner].diagRoots = append(progs[diagOwner].diagRoots, k)
		// Pass 1: diagonal broadcast receives and local TRSMs.
		for _, part := range sp.DiagBcast.Tree.Participants() {
			if part != sp.DiagBcast.Tree.Root {
				progs[part].expect1++
			}
		}
		for _, i := range sp.C {
			o := grid.OwnerOfBlock(i, k)
			progs[o].trsmByK[k] = append(progs[o].trsmByK[k], i)
		}
		// Pass 2 point ops.
		for x := range sp.Cross {
			po := &sp.Cross[x]
			progs[po.Src].crossSrcs = append(progs[po.Src].crossSrcs, blockKey{po.Blk, k})
			progs[po.Dst].expect2++
		}
		for x := range sp.SymmSends {
			progs[sp.SymmSends[x].Dst].expect2++
		}
		// Broadcast trees: every non-root participant receives one message.
		for x := range sp.ColBcasts {
			tr := sp.ColBcasts[x].Tree
			for _, part := range tr.Participants() {
				if part != tr.Root {
					progs[part].expect2++
				}
			}
		}
		// Reduce trees: every node receives one message per child.
		for x := range sp.RowReduces {
			tr := sp.RowReduces[x].Tree
			for _, part := range tr.Participants() {
				progs[part].expect2 += len(tr.Children(part))
				progs[part].nreds++
			}
		}
		tr := sp.DiagReduce.Tree
		for _, part := range tr.Participants() {
			progs[part].expect2 += len(tr.Children(part))
			progs[part].nreds++
		}
		// GEMM tasks and each rank's local reduction chains. Tasks are
		// generated per target J with I ascending through C, so a rank's
		// contributions to one reduction land consecutively, already in
		// canonical slot order: a property of the pattern alone,
		// independent of which balancer distributed the work.
		for _, j := range sp.C {
			key := redKey{redRow, k, j}
			for _, i := range sp.C {
				pr := progs[grid.OwnerOfBlock(j, i)]
				ti := len(pr.tasks)
				pr.tasks = append(pr.tasks, gemmDesc{K: k, I: i, J: j})
				pr.byKI[blockKey{k, i}] = append(pr.byKI[blockKey{k, i}], ti)
				pr.byBlock[blockKey{j, i}] = append(pr.byBlock[blockKey{j, i}], ti)
				pr.extend(key, ti)
			}
		}
		for _, j := range sp.C {
			pr := progs[grid.OwnerOfBlock(j, k)]
			pr.diagJ = append(pr.diagJ, j)
			pr.extend(redKey{redDiag, k, k}, len(pr.diagJ)-1)
		}
		if !plan.Symmetric {
			// Pass 1: row broadcast of the diagonal factor and Û TRSMs.
			for _, part := range sp.DiagBcastRow.Tree.Participants() {
				if part != sp.DiagBcastRow.Tree.Root {
					progs[part].expect1++
				}
			}
			for _, i := range sp.C {
				o := grid.OwnerOfBlock(k, i)
				progs[o].trsmUByK[k] = append(progs[o].trsmUByK[k], i)
			}
			// Pass 2: Û cross sends, row broadcasts, column reduces.
			for x := range sp.CrossU {
				po := &sp.CrossU[x]
				progs[po.Src].crossUSrcs = append(progs[po.Src].crossUSrcs, blockKey{k, po.Blk})
				progs[po.Dst].expect2++
			}
			for x := range sp.RowBcasts {
				tr := sp.RowBcasts[x].Tree
				for _, part := range tr.Participants() {
					if part != tr.Root {
						progs[part].expect2++
					}
				}
			}
			for x := range sp.ColReduces {
				tr := sp.ColReduces[x].Tree
				for _, part := range tr.Participants() {
					progs[part].expect2 += len(tr.Children(part))
					progs[part].nreds++
				}
			}
			for _, j := range sp.C {
				key := redKey{redCol, k, j}
				for _, i := range sp.C {
					pr := progs[grid.OwnerOfBlock(i, j)]
					ti := len(pr.tasksU)
					pr.tasksU = append(pr.tasksU, gemmDesc{K: k, I: i, J: j})
					pr.byKIU[blockKey{k, i}] = append(pr.byKIU[blockKey{k, i}], ti)
					pr.byBlockU[blockKey{i, j}] = append(pr.byBlockU[blockKey{i, j}], ti)
					pr.extend(key, ti)
				}
			}
		}
	}
	return &Engine{Plan: plan, LU: lu, programs: progs, heights: core.SnodeHeights(plan.BP.SnParent)}
}

// elem returns the element type of the bound factorization (Real for an
// unbound plan template).
func (e *Engine) elem() dense.Elem {
	if e.LU != nil {
		return e.LU.Elem
	}
	return dense.Real
}

// Rebind returns a copy of the engine bound to a different numeric
// factorization. The plan-derived per-rank programs — the expensive part of
// NewEngine, proportional to the total task count — are shared with the
// receiver; they are immutable during runs, so rebound engines may run
// concurrently with each other and with the original. This is the warm path
// of a plan cache: same sparsity pattern, new values. Trace, Observer,
// Chaos and DAG are reset on the copy so per-run instrumentation and
// execution modes never leak between requests.
func (e *Engine) Rebind(lu *factor.LU) *Engine {
	return &Engine{Plan: e.Plan, LU: lu, programs: e.programs, heights: e.heights}
}

// RunResult carries the outcome of a distributed run.
type RunResult struct {
	// Ainv is the selected inverse gathered from all ranks. Its blocks are
	// arena-backed; call Release when they are no longer referenced so
	// repeated runs recycle their storage.
	Ainv *blockmat.BlockMatrix
	// World retains the per-rank, per-class communication volume counters.
	World *simmpi.World
	// Elapsed is the wall-clock duration of the parallel section.
	Elapsed time.Duration
	// Dag holds the per-rank task-DAG scheduler statistics of a run with
	// Engine.DAG set, ordered by rank (nil otherwise, and nil for ranks
	// hosted in other processes on a distributed transport).
	Dag []DagRankStats
}

// Release returns the gathered A⁻¹ blocks to the dense kernel arena. The
// Ainv field (and any matrix obtained from it) must not be used afterwards.
func (rr *RunResult) Release() {
	if rr.Ainv == nil {
		return
	}
	rr.Ainv.Range(func(_ blockmat.Key, b *dense.Matrix) { dense.PutMatrix(b) })
	rr.Ainv = nil
}

// Run executes the two passes on a fresh world and gathers the result.
// With Chaos set, the world gets a seeded delivery adversary. On error the
// world is closed; use RunWorld to snapshot a deadlocked world first.
func (e *Engine) Run(timeout time.Duration) (*RunResult, error) {
	var world *simmpi.World
	if e.Transport != nil {
		world = simmpi.NewWorldOn(e.Transport(e.Plan.Grid.Size()))
	} else {
		world = simmpi.NewWorld(e.Plan.Grid.Size())
	}
	if e.Chaos != nil {
		chaos.Install(*e.Chaos, world)
	}
	if e.Observer != nil {
		world.SetObserver(e.Observer)
	}
	res, err := e.RunWorld(world, timeout)
	if err != nil {
		if _, ok := err.(*simmpi.TimeoutError); ok {
			// Snapshot before Close releases the blocked goroutines: the
			// error then names where every rank was stuck and what was in
			// flight, same as the distributed workers' timeout reports.
			err = fmt.Errorf("%w\n%s", err, chaos.Snapshot(world, e.Plan, err).String())
		}
		world.Close()
	}
	return res, err
}

// RunWorld executes the two passes on a caller-supplied world (with any
// adversary already installed) and gathers the result. On error the world
// is NOT closed, so the caller can take a chaos.Snapshot of the stuck ranks
// and in-flight messages before closing it.
//
// With a distributed transport underneath the world (one rank per
// process), only the world's local ranks execute and the result gathers
// only their A⁻¹ blocks; volume conservation is then a cross-process
// property the launcher checks after aggregating worker counters (see
// internal/distrun), so the local check is skipped.
func (e *Engine) RunWorld(world *simmpi.World, timeout time.Duration) (*RunResult, error) {
	if e.elem() == dense.Complex && e.Plan.Symmetric {
		return nil, fmt.Errorf("pselinv: complex factorization requires a general (non-symmetric) plan — " +
			"the symmetric path's transpose mirror has no op-free complex kernel")
	}
	states := make([]*rankState, world.P)
	scheme := e.Plan.Scheme.String()
	start := time.Now()
	err := world.Run(timeout, func(r *simmpi.Rank) {
		// Label the rank goroutine so CPU profiles (pselinvd -pprof)
		// attribute samples to simulated ranks and tree schemes.
		labels := pprof.Labels("pselinv_rank", strconv.Itoa(r.ID), "pselinv_scheme", scheme)
		pprof.Do(context.Background(), labels, func(context.Context) {
			st := newRankState(e, r)
			states[r.ID] = st
			st.runPass1()
			r.Barrier()
			st.runPass2()
		})
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	if world.AllLocal() {
		if cerr := world.CheckConservation(); cerr != nil {
			return nil, cerr
		}
	}
	gathered := blockmat.New(e.Plan.BP.Part)
	var dag []DagRankStats
	for _, st := range states {
		if st == nil { // non-local rank on a distributed transport
			continue
		}
		for key, m := range st.ainv {
			gathered.Set(key.I, key.J, m)
		}
		if st.sched != nil {
			dag = append(dag, st.sched.stats)
		}
		st.release()
	}
	return &RunResult{Ainv: gathered, World: world, Elapsed: elapsed, Dag: dag}, nil
}

// redState tracks one reduction at one rank. sum is arena-backed and
// becomes nil at completion: ownership moves to the parent's mailbox
// (non-root), to the finalized ainv block (row/col root), or back to the
// arena (diag root). Child partial sums wait in kids, indexed by the
// child's position in Tree.Children, until the local chain is done.
type redState struct {
	sum       *dense.Matrix
	kids      [][]float64 // nil when this rank has no children in the reduce tree
	next, end int32       // cursor over the local chain
	waiting   int32       // children not yet arrived
	busy      bool        // DAG mode: a local contribution is in flight
	done      bool
}

// rankState is the mutable per-rank runtime state.
type rankState struct {
	e    *Engine
	r    *simmpi.Rank
	prog *rankProgram

	lhat     map[blockKey]*dense.Matrix // owned L̂ blocks (pass 1 output)
	diagFact map[int]*dense.Matrix      // packed diagonal factors (owned or received)
	ainv     map[blockKey]*dense.Matrix // finalized owned A⁻¹ blocks
	bcastL   map[blockKey]*dense.Matrix // (K, I) -> L̂_{I,K} received via Col-Bcast
	reds     map[redKey]*redState

	// Asymmetric path state:
	uhat   map[blockKey]*dense.Matrix // owned Û blocks, keyed (K, I)
	bcastU map[blockKey]*dense.Matrix // (K, I) -> Û_{K,I} received via Row-Bcast

	// sched, non-nil iff Engine.DAG, detours TRSM/GEMM-sized compute
	// through the worker-pool task scheduler (see dag.go).
	sched *dagSched

	// elem caches the factorization's element type: every payload and
	// arena request below is sized for it.
	elem dense.Elem
}

func newRankState(e *Engine, r *simmpi.Rank) *rankState {
	st := &rankState{
		e: e, r: r, prog: e.programs[r.ID],
		elem:     e.elem(),
		lhat:     map[blockKey]*dense.Matrix{},
		diagFact: map[int]*dense.Matrix{},
		ainv:     map[blockKey]*dense.Matrix{},
		bcastL:   map[blockKey]*dense.Matrix{},
		reds:     make(map[redKey]*redState, e.programs[r.ID].nreds),
		uhat:     map[blockKey]*dense.Matrix{},
		bcastU:   map[blockKey]*dense.Matrix{},
	}
	if e.DAG {
		st.sched = newDagSched(st)
	}
	return st
}

func (st *rankState) width(k int) int { return st.e.Plan.BP.Part.Width(k) }

// collSpan opens a collective-communication span for supernode k, tagged
// with this rank's role in the collective's tree, so the Chrome trace
// merges communication spans with the compute spans on one timeline. The
// span should cover only the message handling (forwarding sends, reduce
// combines), not the compute it unblocks — the GEMM/TRSM spans stand on
// their own.
func (st *rankState) collSpan(kind string, k int, tr *core.Tree) func() {
	if st.e.Trace == nil {
		return func() {}
	}
	me := st.r.ID
	role := "leaf"
	switch {
	case me == tr.Root:
		role = "root"
	case len(tr.Children(me)) > 0:
		role = "forwarder"
	}
	return st.e.Trace.SpanRole(me, kind, k, role)
}

func matFromData(rows, cols int, elem dense.Elem, data []float64) *dense.Matrix {
	if len(data) != rows*cols*elem.Width() {
		panic(fmt.Sprintf("pselinv: %s payload %d does not match %dx%d block",
			elem, len(data), rows, cols))
	}
	return &dense.Matrix{Rows: rows, Cols: cols, Elem: elem, Data: data}
}

// addPayload accumulates a raw reduce payload into sum without wrapping it
// in a matrix header.
func addPayload(sum *dense.Matrix, data []float64) {
	if len(data) != len(sum.Data) {
		panic(fmt.Sprintf("pselinv: reduce payload %d does not match %dx%d sum",
			len(data), sum.Rows, sum.Cols))
	}
	for i, v := range data {
		sum.Data[i] += v
	}
}

// release returns this rank's engine-owned scratch — the normalized L̂/Û
// copies made in pass 1 — to the kernel arena. It must run only after every
// rank has finished: broadcast maps on other ranks alias these buffers
// zero-copy. bcastL/bcastU/diagFact are aliases (of a peer's L̂/Û or of the
// factorization's diagonal blocks) and are deliberately not released;
// finalized A⁻¹ blocks are owned by the RunResult.
func (st *rankState) release() {
	for _, m := range st.lhat {
		dense.PutMatrix(m)
	}
	for _, m := range st.uhat {
		dense.PutMatrix(m)
	}
}

// --- Pass 1: diagonal broadcast + TRSM normalization -----------------------

func (st *rankState) runPass1() {
	me := st.r.ID
	for _, k := range st.prog.diagRoots {
		dk := st.e.LU.Diag[k]
		st.diagFact[k] = dk
		sp := st.e.Plan.Snodes[k]
		end := st.collSpan("diag-bcast", k, sp.DiagBcast.Tree)
		for _, c := range sp.DiagBcast.Tree.Children(me) {
			st.r.Send(c, sp.DiagBcast.Key(), simmpi.ClassDiagBcast, dk.Data)
		}
		end()
		st.doTrsms(k)
		if !st.e.Plan.Symmetric {
			end := st.collSpan("diag-bcast", k, sp.DiagBcastRow.Tree)
			for _, c := range sp.DiagBcastRow.Tree.Children(me) {
				st.r.Send(c, sp.DiagBcastRow.Key(), simmpi.ClassDiagBcast, dk.Data)
			}
			end()
			st.doTrsmsU(k)
		}
	}
	for got := 0; got < st.prog.expect1; got++ {
		msg, ok := st.r.Recv()
		if !ok {
			panic("pselinv: world closed during pass 1")
		}
		kind, k, _ := decodeKey(msg.Tag)
		w := st.width(k)
		dk := matFromData(w, w, st.elem, msg.Data)
		st.diagFact[k] = dk
		sp := st.e.Plan.Snodes[k]
		switch kind {
		case core.OpDiagBcast:
			end := st.collSpan("diag-bcast", k, sp.DiagBcast.Tree)
			for _, c := range sp.DiagBcast.Tree.Children(me) {
				st.r.Send(c, sp.DiagBcast.Key(), simmpi.ClassDiagBcast, dk.Data)
			}
			end()
			st.doTrsms(k)
		case core.OpDiagBcastRow:
			end := st.collSpan("diag-bcast", k, sp.DiagBcastRow.Tree)
			for _, c := range sp.DiagBcastRow.Tree.Children(me) {
				st.r.Send(c, sp.DiagBcastRow.Key(), simmpi.ClassDiagBcast, dk.Data)
			}
			end()
			st.doTrsmsU(k)
		default:
			panic(fmt.Sprintf("pselinv: unexpected %v message in pass 1", kind))
		}
	}
	if st.sched != nil {
		// Join the TRSM tasks before the barrier: pass 2 sends L̂/Û
		// buffers zero-copy, so they must be final first. The TRSMs of
		// late-arriving diagonal broadcasts still overlapped the Recv
		// waits above.
		st.sched.drain()
	}
}

// doTrsms normalizes every owned L block in column k:
// L̂_{I,K} = L_{I,K} L_KK⁻¹ (right solve against the unit lower factor).
func (st *rankState) doTrsms(k int) {
	dk := st.diagFact[k]
	for _, i := range st.prog.trsmByK[k] {
		lb, ok := st.e.LU.LBlock(i, k)
		if !ok {
			panic(fmt.Sprintf("pselinv: plan references missing L block (%d,%d)", i, k))
		}
		if st.sched != nil {
			// The map insert happens here so pass 2 finds the block; the
			// solve fills it on a worker, joined before the barrier.
			x := dense.GetMatrixCopy(lb)
			st.lhat[blockKey{i, k}] = x
			st.sched.submit(k, "trsm", st.sched.depf("diag-bcast(%d)", k), func() {
				dense.Trsm(dense.Right, dense.Lower, dense.NoTrans, dense.Unit, dk, x)
			}, nil)
			continue
		}
		end := st.e.Trace.Span(st.r.ID, "trsm", k)
		x := dense.GetMatrixCopy(lb)
		dense.Trsm(dense.Right, dense.Lower, dense.NoTrans, dense.Unit, dk, x)
		st.lhat[blockKey{i, k}] = x
		end()
	}
}

// doTrsmsU normalizes every owned U block in row k (asymmetric path):
// Û_{K,I} = U_KK⁻¹ U_{K,I} (left solve against the upper factor).
func (st *rankState) doTrsmsU(k int) {
	dk := st.diagFact[k]
	for _, i := range st.prog.trsmUByK[k] {
		ub, ok := st.e.LU.UBlock(k, i)
		if !ok {
			panic(fmt.Sprintf("pselinv: plan references missing U block (%d,%d)", k, i))
		}
		if st.sched != nil {
			x := dense.GetMatrixCopy(ub)
			st.uhat[blockKey{k, i}] = x
			st.sched.submit(k, "trsm-u", st.sched.depf("diag-bcast-row(%d)", k), func() {
				dense.Trsm(dense.Left, dense.Upper, dense.NoTrans, dense.NonUnit, dk, x)
			}, nil)
			continue
		}
		end := st.e.Trace.Span(st.r.ID, "trsm-u", k)
		x := dense.GetMatrixCopy(ub)
		dense.Trsm(dense.Left, dense.Upper, dense.NoTrans, dense.NonUnit, dk, x)
		st.uhat[blockKey{k, i}] = x
		end()
	}
}

// --- Pass 2: asynchronous selected inversion -------------------------------

func (st *rankState) runPass2() {
	if st.sched != nil {
		st.runPass2Dag()
		return
	}
	// Initial local actions: leaf diagonals and cross-sends of ready L̂.
	for _, k := range st.prog.leafDiags {
		end := st.e.Trace.Span(st.r.ID, "diag-inverse", k)
		inv := dense.GetMatrixUninitElem(st.width(k), st.width(k), st.elem)
		st.e.LU.DiagInverseTo(k, inv)
		end()
		st.finalize(blockKey{k, k}, inv)
	}
	for _, bk := range st.prog.crossSrcs {
		i, k := bk.I, bk.J
		dst := st.e.Plan.Owners.OwnerOfBlock(k, i)
		st.r.Send(dst, core.OpKey(core.OpCrossSend, k, i), simmpi.ClassCrossSend,
			st.lhat[blockKey{i, k}].Data)
	}
	for _, bk := range st.prog.crossUSrcs {
		k, i := bk.I, bk.J
		dst := st.e.Plan.Owners.OwnerOfBlock(i, k)
		st.r.Send(dst, core.OpKey(core.OpCrossSendU, k, i), simmpi.ClassCrossSend,
			st.uhat[blockKey{k, i}].Data)
	}
	for got := 0; got < st.prog.expect2; got++ {
		msg, ok := st.r.Recv()
		if !ok {
			panic("pselinv: world closed during pass 2")
		}
		st.handle(msg)
	}
}

func decodeKey(tag uint64) (kind core.OpKind, k, blk int) {
	return core.DecodeOpKey(tag)
}

// cIndex locates blk within the sorted C of a supernode plan.
func cIndex(c []int, blk int) int {
	x := sort.SearchInts(c, blk)
	if x == len(c) || c[x] != blk {
		panic(fmt.Sprintf("pselinv: block %d not in structure %v", blk, c))
	}
	return x
}

func (st *rankState) handle(msg simmpi.Message) {
	kind, k, blk := decodeKey(msg.Tag)
	sp := st.e.Plan.Snodes[k]
	me := st.r.ID
	switch kind {
	case core.OpCrossSend:
		// I'm the owner of (K, I): the broadcast root. Store L̂_{I,K} and
		// start the Col-Bcast down processor column I.
		i := blk
		lh := matFromData(st.width(i), st.width(k), st.elem, msg.Data)
		cb := &sp.ColBcasts[cIndex(sp.C, i)]
		end := st.collSpan("col-bcast", k, cb.Tree)
		for _, c := range cb.Tree.Children(me) {
			st.r.Send(c, cb.Key(), simmpi.ClassColBcast, lh.Data)
		}
		end()
		st.bcastArrived(k, i, lh)
	case core.OpColBcast:
		i := blk
		lh := matFromData(st.width(i), st.width(k), st.elem, msg.Data)
		cb := &sp.ColBcasts[cIndex(sp.C, i)]
		end := st.collSpan("col-bcast", k, cb.Tree)
		for _, c := range cb.Tree.Children(me) {
			st.r.Send(c, cb.Key(), simmpi.ClassColBcast, lh.Data)
		}
		end()
		st.bcastArrived(k, i, lh)
	case core.OpRowReduce:
		st.childArrived(redKey{redRow, k, blk}, msg)
	case core.OpDiagReduce:
		st.childArrived(redKey{redDiag, k, k}, msg)
	case core.OpSymmSend:
		// Finalized A⁻¹_{J,K} arrives at the owner of (K, J); mirror it.
		// The payload is the sender's finalized block (not ours to recycle).
		j := blk
		low := matFromData(st.width(j), st.width(k), st.elem, msg.Data)
		up := dense.GetMatrixUninitElem(low.Cols, low.Rows, low.Elem)
		low.TransposeInto(up)
		st.finalize(blockKey{k, j}, up)
	case core.OpCrossSendU:
		// I'm the owner of (I, K): the row-broadcast root. Store Û_{K,I},
		// start the Row-Bcast, and — since I'm also the Row-Reduce root
		// for block (I,K), which owns the diagonal contribution
		// Û_{K,I}·A⁻¹_{I,K} — let the Diag-Reduce chain advance.
		i := blk
		uh := matFromData(st.width(k), st.width(i), st.elem, msg.Data)
		rb := &sp.RowBcasts[cIndex(sp.C, i)]
		end := st.collSpan("row-bcast", k, rb.Tree)
		for _, c := range rb.Tree.Children(me) {
			st.r.Send(c, rb.Key(), simmpi.ClassRowBcast, uh.Data)
		}
		end()
		st.bcastUArrived(k, i, uh)
		st.advance(redKey{redDiag, k, k})
	case core.OpRowBcast:
		i := blk
		uh := matFromData(st.width(k), st.width(i), st.elem, msg.Data)
		rb := &sp.RowBcasts[cIndex(sp.C, i)]
		end := st.collSpan("row-bcast", k, rb.Tree)
		for _, c := range rb.Tree.Children(me) {
			st.r.Send(c, rb.Key(), simmpi.ClassRowBcast, uh.Data)
		}
		end()
		st.bcastUArrived(k, i, uh)
	case core.OpColReduce:
		st.childArrived(redKey{redCol, k, blk}, msg)
	default:
		panic(fmt.Sprintf("pselinv: unexpected %v message in pass 2", kind))
	}
}

// bcastArrived records L̂_{I,K} and advances every Row-Reduce with a local
// contribution waiting on it.
func (st *rankState) bcastArrived(k, i int, lh *dense.Matrix) {
	st.bcastL[blockKey{k, i}] = lh
	for _, ti := range st.prog.byKI[blockKey{k, i}] {
		st.advance(redKey{redRow, k, st.prog.tasks[ti].J})
	}
}

// bcastUArrived records Û_{K,I} and advances every Col-Reduce with a local
// contribution waiting on it.
func (st *rankState) bcastUArrived(k, i int, uh *dense.Matrix) {
	st.bcastU[blockKey{k, i}] = uh
	for _, ti := range st.prog.byKIU[blockKey{k, i}] {
		st.advance(redKey{redCol, k, st.prog.tasksU[ti].J})
	}
}

// finalize records an owned A⁻¹ block and advances every reduction with a
// local contribution waiting on it.
func (st *rankState) finalize(key blockKey, m *dense.Matrix) {
	if _, dup := st.ainv[key]; dup {
		panic(fmt.Sprintf("pselinv: block (%d,%d) finalized twice", key.I, key.J))
	}
	st.ainv[key] = m
	for _, ti := range st.prog.byBlock[key] {
		t := st.prog.tasks[ti]
		st.advance(redKey{redRow, t.K, t.J})
	}
	for _, ti := range st.prog.byBlockU[key] {
		t := st.prog.tasksU[ti]
		st.advance(redKey{redCol, t.K, t.J})
	}
}

// reduceOp returns the plan collective of a reduction.
func (st *rankState) reduceOp(key redKey) *core.CollOp {
	sp := st.e.Plan.Snodes[key.K]
	switch key.kind {
	case redRow:
		return &sp.RowReduces[cIndex(sp.C, key.J)]
	case redCol:
		return &sp.ColReduces[cIndex(sp.C, key.J)]
	}
	return sp.DiagReduce
}

// red returns this rank's state for a reduction, creating it on first
// touch: the cursor over the local chain and one stash entry per
// reduce-tree child.
func (st *rankState) red(key redKey) *redState {
	if red, ok := st.reds[key]; ok {
		return red
	}
	c := st.prog.chains[key]
	nk := len(st.reduceOp(key).Tree.Children(st.r.ID))
	red := &redState{next: c.lo, end: c.hi, waiting: int32(nk)}
	if nk > 0 {
		red.kids = make([][]float64, nk)
	}
	st.reds[key] = red
	return red
}

// shape returns the dimensions of a reduction's target block.
func (st *rankState) shape(key redKey) (rows, cols int) {
	if key.kind == redRow {
		return st.width(key.J), st.width(key.K) // A⁻¹_{J,K}
	}
	return st.width(key.K), st.width(key.J) // A⁻¹_{K,J}; Diag-Reduce: square
}

// sum returns a reduction's accumulator, allocating the zeroed block when
// the first contribution runs rather than when the reduction is first
// touched, so sums of reductions still waiting for operands hold no
// memory.
func (st *rankState) sum(key redKey, red *redState) *dense.Matrix {
	if red.sum == nil {
		rows, cols := st.shape(key)
		red.sum = dense.GetMatrixElem(rows, cols, st.elem)
	}
	return red.sum
}

// childArrived stashes a child's partial sum until its turn in the fold.
// Reduce payloads transfer buffer ownership to the receiver, which
// recycles them after folding.
func (st *rankState) childArrived(key redKey, msg simmpi.Message) {
	red := st.red(key)
	if rows, cols := st.shape(key); len(msg.Data) != rows*cols*st.elem.Width() {
		panic(fmt.Sprintf("pselinv: reduce payload %d does not match %dx%d %s block",
			len(msg.Data), rows, cols, st.elem))
	}
	x := 0
	for _, c := range st.reduceOp(key).Tree.Children(st.r.ID) {
		if c == msg.Src {
			break
		}
		x++
	}
	if x == len(red.kids) || red.kids[x] != nil {
		panic(fmt.Sprintf("pselinv: unexpected reduce message from rank %d", msg.Src))
	}
	red.kids[x] = msg.Data
	red.waiting--
	st.advance(key)
}

// operands returns the GEMM operands of local contribution x of a
// reduction — op(a)·b accumulates into the sum — and whether both have
// arrived.
func (st *rankState) operands(key redKey, x int32) (ta dense.Trans, a, b *dense.Matrix, ok bool) {
	var okA, okB bool
	switch key.kind {
	case redRow:
		t := st.prog.tasks[x]
		a, okA = st.ainv[blockKey{t.J, t.I}]
		b, okB = st.bcastL[blockKey{t.K, t.I}]
	case redCol:
		t := st.prog.tasksU[x]
		a, okA = st.bcastU[blockKey{t.K, t.I}]
		b, okB = st.ainv[blockKey{t.I, t.J}]
	default:
		j := st.prog.diagJ[x]
		b, okB = st.ainv[blockKey{j, key.K}]
		if st.e.Plan.Symmetric {
			// L̂_{J,K}ᵀ·A⁻¹_{J,K} = Û_{K,J}·A⁻¹_{J,K}.
			a, okA = st.lhat[blockKey{j, key.K}]
			return dense.DoTrans, a, b, okA && okB
		}
		a, okA = st.bcastU[blockKey{key.K, j}]
	}
	return dense.NoTrans, a, b, okA && okB
}

// advance runs a reduction's local contributions in chain order for as
// long as their operands are present, each GEMM accumulating straight
// into the one sum; a contribution whose operands arrived early waits for
// its turn. DAG mode keeps at most one contribution in flight, so the sum
// sees the same GEMM sequence as a sequential run. Once the chain is done
// and every child has arrived, the reduction completes.
func (st *rankState) advance(key redKey) {
	red := st.red(key)
	for !red.busy && red.next < red.end {
		ta, a, b, ok := st.operands(key, red.next)
		if !ok {
			return
		}
		red.next++
		sum := st.sum(key, red)
		if st.sched != nil {
			red.busy = true
			st.sched.submit(key.K, gemmKind[key.kind],
				st.sched.depf("%s(%d,%d) contribution %d", redSpanKind[key.kind], key.K, key.J, red.next-1),
				func() {
					dense.Gemm(ta, dense.NoTrans, 1, a, b, 1, sum)
				}, func() {
					red.busy = false
					st.advance(key)
				})
			return
		}
		end := st.e.Trace.Span(st.r.ID, gemmKind[key.kind], key.K)
		dense.Gemm(ta, dense.NoTrans, 1, a, b, 1, sum)
		end()
	}
	if red.busy || red.waiting > 0 || red.done {
		return
	}
	red.done = true
	st.complete(key, red)
}

// complete folds the children's partial sums into the local one in
// Tree.Children order, then sends the result up the reduce tree or — at
// the root — finalizes the target block.
func (st *rankState) complete(key redKey, red *redState) {
	op := st.reduceOp(key)
	end := st.collSpan(redSpanKind[key.kind], key.K, op.Tree)
	sum := st.sum(key, red)
	red.sum = nil
	for _, kid := range red.kids {
		addPayload(sum, kid)
		dense.PutBuf(kid)
	}
	red.kids = nil
	me := st.r.ID
	if me != op.Tree.Root {
		// The buffer travels up the tree; the parent recycles it.
		st.r.Send(op.Tree.Parent(me), op.Key(), redClass[key.kind], sum.Data)
		end()
		return
	}
	end()
	k, j := key.K, key.J
	switch key.kind {
	case redRow:
		// A⁻¹_{J,K} = −Σ; ownership moves to ainv (released via
		// RunResult.Release).
		sum.Scale(-1)
		st.finalize(blockKey{j, k}, sum)
		if st.e.Plan.Symmetric {
			// Mirror to the upper triangle.
			dst := st.e.Plan.Owners.OwnerOfBlock(k, j)
			st.r.Send(dst, core.OpKey(core.OpSymmSend, k, j), simmpi.ClassSymmSend, sum.Data)
		}
		// This root owns the diagonal contribution of block J.
		st.advance(redKey{redDiag, k, k})
	case redCol:
		sum.Scale(-1)
		st.finalize(blockKey{k, j}, sum)
	case redDiag:
		// A⁻¹_{K,K} = U_KK⁻¹L_KK⁻¹ − Σ.
		diag := dense.GetMatrixUninitElem(st.width(k), st.width(k), st.elem)
		if st.sched != nil {
			st.sched.submit(k, "diag-inverse", st.sched.depf("diag-reduce(%d)", k),
				func() {
					st.e.LU.DiagInverseTo(k, diag)
					diag.AddScaled(-1, sum)
				}, func() {
					dense.PutMatrix(sum)
					st.finalize(blockKey{k, k}, diag)
				})
			return
		}
		endInv := st.e.Trace.Span(st.r.ID, "diag-inverse", k)
		st.e.LU.DiagInverseTo(k, diag)
		diag.AddScaled(-1, sum)
		endInv()
		dense.PutMatrix(sum)
		st.finalize(blockKey{k, k}, diag)
	}
}
