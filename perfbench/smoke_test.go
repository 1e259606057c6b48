package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pselinv/internal/distrun"
)

// TestMain lets the TCP probe's launcher re-execute the test binary as its
// worker processes.
func TestMain(m *testing.M) {
	distrun.MaybeWorker()
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the binary must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesBinary holds BENCHMARK.json and the binary's metric and
// workload tables to the same names and units.
func TestSpecMatchesBinary(t *testing.T) {
	spec := readSpec(t)
	compare := func(kind string, json []struct{ Name, Unit string }, defs []metricDef) {
		if len(json) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary %d", kind, len(json), len(defs))
		}
		for i := 0; i < min(len(json), len(defs)); i++ {
			if json[i].Name != defs[i].name || json[i].Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the binary %s [%s]",
					kind, i, json[i].Name, json[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the binary %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

// TestSmoke runs every workload for a few operations, untraced and traced,
// and checks that each emits every metric BENCHMARK.json names for the
// mode, with its unit, and that every operation passed its check.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			cfg := config{Workload: w.Name, Seed: 3, Trace: traced, Smoke: true, StateDir: t.TempDir(), Log: io.Discard}
			out, notes, err := run(cfg, environment(cfg))
			if err != nil {
				t.Fatalf("%s trace=%v: %v (notes %v)", w.Name, traced, err, notes)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < smokeOps {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes %v",
					w.Name, traced, out.Correct, out.Attempted, out.Failed, notes)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestExactRepeat checks that a second run with the same seed is compared
// against the first one's deterministic counts, and that a changed count
// fails the run.
func TestExactRepeat(t *testing.T) {
	dir := t.TempDir()
	cfg := config{Workload: "pexsi_batch_fe3d", Seed: 5, Smoke: true, StateDir: dir, Log: io.Discard}
	for i := 0; i < 2; i++ {
		out, notes, err := run(cfg, environment(cfg))
		if err != nil || !out.Correct {
			t.Fatalf("run %d: err %v, notes %v", i, err, notes)
		}
	}
	build, err := buildDigest()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "repeat", build, "pexsi_batch_fe3d-seed5-tracefalse.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]float64
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	rec["total_sent_bytes"]++
	if data, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := run(cfg, environment(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct {
		t.Fatal("a changed deterministic count went unnoticed")
	}
}
