// Command perfbench is the repository benchmark: two workloads that drive
// the selected-inversion stack end to end, check every operation against a
// serial reference, and print one JSON result line. See README.md.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload dg_selinv_p16 --seed 1 --seconds 50 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"pselinv/internal/dense"
	"pselinv/internal/distrun"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"dg_selinv_p16":    runDG,
	"pexsi_batch_fe3d": runPexsi,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Smoke runs a handful of operations and a single set-up instead of
	// filling the measurement window: the mode the smoke test uses.
	Smoke bool
	// StateDir receives span files and exact-repeat records.
	StateDir string
	// Log receives progress and diagnostics (stderr from the command).
	Log io.Writer
}

// output is the final result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// The TCP probe's launcher re-executes this binary once per rank.
	distrun.MaybeWorker()

	cfg := config{Log: os.Stderr}
	flag.StringVar(&cfg.Workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.Smoke, "smoke", false, "run a few operations only")
	flag.StringVar(&cfg.StateDir, "state-dir", ".bench_build", "directory for span files and exact-repeat records")
	flag.Parse()
	cfg.Trace = *trace != 0

	env := environment(cfg)
	envLine, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", envLine)

	out, notes, err := run(cfg, env)
	for _, n := range notes {
		fmt.Printf("# %s\n", n)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result line. notes are
// human-readable lines (tail percentile, failure reasons) printed ahead of
// the result.
func run(cfg config, env map[string]any) (*output, []string, error) {
	drive, ok := workloads[cfg.Workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, workloadNames())
	}
	if cfg.Seconds <= 0 && !cfg.Smoke {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	b := newBench(cfg)
	if err := drive(b); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	if err := b.checkRepeat(); err != nil {
		b.fail("exact-repeat: %v", err)
		b.incorrect = true
	}
	if cfg.Trace {
		if err := b.writeSpans(env); err != nil {
			return nil, b.notes, err
		}
	}
	metrics, err := selectMetrics(b.metrics, cfg.Trace)
	if err != nil {
		return nil, b.notes, err
	}
	if b.attempted < 1 {
		return nil, b.notes, fmt.Errorf("no operation was attempted")
	}
	out := &output{
		Correct:   !b.incorrect,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	return out, b.notes, nil
}

// environment describes the machine and settings, so results from
// different machine classes are never compared blindly.
func environment(cfg config) map[string]any {
	model, avx2fma := cpuInfo()
	return map[string]any{
		"workload":        cfg.Workload,
		"seed":            cfg.Seed,
		"seconds":         cfg.Seconds,
		"trace":           cfg.Trace,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"dense_workers":   dense.Workers(),
		"go":              runtime.Version(),
		"goarch":          runtime.GOARCH,
		"cpu":             model,
		"avx2_fma_kernel": avx2fma,
		"started":         time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuInfo reads the CPU model and whether the dense package's AVX2+FMA
// micro-kernel runs here (amd64 with both flags; Linux lists them only when
// the OS has enabled the YMM state they need) from /proc/cpuinfo.
func cpuInfo() (model string, avx2fma bool) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown", false
	}
	model = "unknown"
	var flags []string
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			model = strings.TrimSpace(val)
		case "flags":
			flags = strings.Fields(val)
		}
		if model != "unknown" && flags != nil {
			break
		}
	}
	return model, runtime.GOARCH == "amd64" && slices.Contains(flags, "avx2") && slices.Contains(flags, "fma")
}
