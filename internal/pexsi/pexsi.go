// Package pexsi implements the pole-expansion driver that motivates the
// paper: electronic-structure calculations approximate the density matrix
// of a Hamiltonian H as a weighted sum of selected inverses of shifted
// systems,
//
//	ρ ≈ Σₗ wₗ · diag( (H + σₗ I)⁻¹ ),
//
// with the selected inversions for different poles carried out
// simultaneously on independent processor subgroups (§V: "multiple
// selected inversions are carried out simultaneously on different
// subgroups of processors"). This package runs one simulated PSelInv world
// per pole, optionally concurrently, and accumulates the density estimate.
//
// The true PEXSI method uses complex poles from a rational approximation
// of the Fermi–Dirac function; this repository is real-arithmetic only, so
// poles are real positive shifts (the matrices stay diagonally dominant),
// which exercises exactly the same computational and communication
// structure per pole.
package pexsi

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
	"pselinv/internal/selinv"
	"pselinv/internal/sparse"
)

// Pole is one expansion term: diag((H + Shift·I)⁻¹) scaled by Weight.
type Pole struct {
	Shift  float64
	Weight float64
}

// FermiPoles returns a simple real-shift pole set emulating the structure
// of a Fermi–Dirac rational approximation: geometrically spaced shifts
// with exponentially decaying weights, normalized to sum to one.
func FermiPoles(count int, minShift, ratio float64) []Pole {
	if count <= 0 {
		panic("pexsi: non-positive pole count")
	}
	poles := make([]Pole, count)
	shift := minShift
	wsum := 0.0
	for l := range poles {
		w := math.Exp(-float64(l) / 2)
		poles[l] = Pole{Shift: shift, Weight: w}
		wsum += w
		shift *= ratio
	}
	for l := range poles {
		poles[l].Weight /= wsum
	}
	return poles
}

// Config controls a pole-expansion run.
type Config struct {
	Poles        []Pole
	ProcsPerPole int         // simulated ranks per pole group
	Scheme       core.Scheme // restricted-collective scheme within each group
	// Balancer selects the supernode→process mapping within each pole
	// group (zero value: block-cyclic).
	Balancer core.Balancer
	// DAG enables intra-rank task-DAG execution within each pole group.
	DAG      bool
	Seed     uint64
	Relax    int
	MaxWidth int
	Parallel bool          // run pole groups concurrently (as PEXSI does)
	Timeout  time.Duration // per-pole engine timeout (0 = 5 minutes)
}

// PoleStats records the communication behaviour of one pole's inversion.
type PoleStats struct {
	Pole      Pole
	MaxSentMB float64
	Elapsed   time.Duration
}

// Result is the outcome of a pole-expansion run.
type Result struct {
	// Density is the accumulated Σ wₗ diag((H+σₗI)⁻¹), in the ORIGINAL
	// index ordering of the input matrix.
	Density []float64
	Stats   []PoleStats
	Elapsed time.Duration
}

// Run executes the pole expansion for the Hamiltonian h.
func Run(h *sparse.Generated, cfg Config) (*Result, error) {
	if len(cfg.Poles) == 0 {
		return nil, fmt.Errorf("pexsi: no poles configured")
	}
	if cfg.ProcsPerPole <= 0 {
		cfg.ProcsPerPole = 1
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Minute
	}
	start := time.Now()
	n := h.A.N
	res := &Result{Density: make([]float64, n), Stats: make([]PoleStats, len(cfg.Poles))}
	densities := make([][]float64, len(cfg.Poles))

	runPole := func(l int) error {
		pole := cfg.Poles[l]
		shifted := &sparse.Generated{A: h.A.AddDiagonal(pole.Shift), Name: h.Name, Geom: h.Geom}
		perm := ordering.Compute(ordering.NestedDissection, shifted.A, shifted.Geom)
		an := etree.Analyze(shifted.A.Permute(perm), perm,
			etree.Options{Relax: cfg.Relax, MaxWidth: cfg.MaxWidth})
		lu, err := factor.Factorize(an.A, an.BP)
		if err != nil {
			return fmt.Errorf("pexsi: pole %d (σ=%g): %w", l, pole.Shift, err)
		}
		grid := procgrid.Squarish(cfg.ProcsPerPole)
		var diag []float64
		var maxSent float64
		var elapsed time.Duration
		if cfg.ProcsPerPole == 1 {
			// Single-rank pole groups fall back to the sequential kernel.
			t0 := time.Now()
			sr := selinv.SelInv(lu)
			elapsed = time.Since(t0)
			diag = diagonalOf(an, sr.Ainv.At)
			sr.Release()
		} else {
			plan := core.NewPlanConfig(an.BP, grid, core.PlanConfig{
				Scheme: cfg.Scheme, Seed: cfg.Seed + uint64(l),
				Symmetric: true, Balancer: cfg.Balancer,
			})
			eng := pselinv.NewEngine(plan, lu)
			eng.DAG = cfg.DAG
			run, err := eng.Run(cfg.Timeout)
			if err != nil {
				return fmt.Errorf("pexsi: pole %d (σ=%g): %w", l, pole.Shift, err)
			}
			elapsed = run.Elapsed
			diag = diagonalOf(an, run.Ainv.At)
			for r := 0; r < run.World.P; r++ {
				if v := float64(run.World.TotalSent(r)) / 1e6; v > maxSent {
					maxSent = v
				}
			}
		}
		densities[l] = diag
		res.Stats[l] = PoleStats{Pole: pole, MaxSentMB: maxSent, Elapsed: elapsed}
		return nil
	}

	if cfg.Parallel {
		var wg sync.WaitGroup
		errs := make([]error, len(cfg.Poles))
		for l := range cfg.Poles {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				errs[l] = runPole(l)
			}(l)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		for l := range cfg.Poles {
			if err := runPole(l); err != nil {
				return nil, err
			}
		}
	}
	for l, pole := range cfg.Poles {
		for i := 0; i < n; i++ {
			res.Density[i] += pole.Weight * densities[l][i]
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// diagonalOf maps the permuted diagonal back to the original ordering.
func diagonalOf(an *etree.Analysis, at func(i, j int) float64) []float64 {
	n := len(an.PermTotal)
	d := make([]float64, n)
	for orig := 0; orig < n; orig++ {
		p := an.PermTotal[orig]
		d[orig] = at(p, p)
	}
	return d
}
