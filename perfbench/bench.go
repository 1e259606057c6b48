package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Set-up repetitions: setup_s is the median of at least setupReps timed
// set-ups, and of as many more as fit until the set-ups together took
// setupBudget, so one slow start-up (page faults, a cold file cache) does
// not move it and a set-up of a few tens of milliseconds (the PEXSI one)
// is not a median of five noisy readings.
const (
	setupReps   = 5
	setupBudget = 2 * time.Second
)

// Smoke-mode operation count per phase.
const smokeOps = 2

// bench accumulates one invocation's measurements.
type bench struct {
	cfg     config
	metrics map[string]metric
	notes   []string
	spans   *spanLog

	attempted, failed int
	// incorrect is set by any correctness-check or exact-repeat failure.
	incorrect bool
	// rssPeaks are the measurement windows' per-second resident-set
	// peaks, in MiB.
	rssPeaks []float64
	// counts are the deterministic quantities of this run (bytes,
	// messages, flops, supernode counts, simulated makespan): checked for
	// equality across operations within the run and against the record a
	// previous run with the same workload, seed and mode left behind.
	counts map[string]float64
}

func newBench(cfg config) *bench {
	return &bench{
		cfg:     cfg,
		metrics: map[string]metric{},
		spans:   newSpanLog(cfg.Trace),
		counts:  map[string]float64{},
	}
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.cfg.Log, "perfbench: "+format+"\n", args...)
}

// fail records the reason for a failed operation or check.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.logf("FAILED: %s", msg)
	if len(b.notes) < 20 {
		b.notes = append(b.notes, "failure: "+msg)
	}
}

// count records a deterministic count; a different value for a name
// already recorded in this run is a loud failure.
func (b *bench) count(name string, v float64) {
	if old, ok := b.counts[name]; ok && old != v {
		b.fail("exact-repeat: %s changed within the run: %v then %v", name, old, v)
		b.incorrect = true
		return
	}
	b.counts[name] = v
}

// window returns the measurement window of one phase; traced runs split
// the window between an untraced and a traced phase.
func (b *bench) window() time.Duration {
	w := time.Duration(b.cfg.Seconds * float64(time.Second))
	if b.cfg.Trace {
		w /= 2
	}
	return w
}

// opResult is one timed operation: its latency and, for a failed
// operation, the reason.
type opResult struct {
	lat time.Duration
	err error
}

// measure runs op back to back until the phase window closes (smokeOps
// times in smoke mode) and returns the latencies of the operations that
// succeeded. Failures are counted and their reasons recorded.
func (b *bench) measure(op func(i int) opResult) []float64 {
	var lats []float64
	// Start every window from a collected heap, as testing.B does, so the
	// garbage of set-up and references is not charged to the first ops.
	runtime.GC()
	stop, peaks := make(chan struct{}), make(chan []float64)
	go func() { peaks <- sampleRSS(stop) }()
	defer func() {
		close(stop)
		b.rssPeaks = append(b.rssPeaks, <-peaks...)
	}()
	start := time.Now()
	win := b.window()
	for i := 0; ; i++ {
		if b.cfg.Smoke && i >= smokeOps || !b.cfg.Smoke && i > 0 && time.Since(start) >= win {
			break
		}
		r := op(i)
		b.attempted++
		if r.err != nil {
			b.failed++
			b.fail("op %d: %v", i, r.err)
			continue
		}
		lats = append(lats, r.lat.Seconds())
	}
	return lats
}

// latencyMetrics sets op_p50_s, op_tail_s and ops_per_s from one phase's
// latencies and elapsed time.
func (b *bench) latencyMetrics(lats []float64, elapsed time.Duration, completed int) {
	b.set("op_p50_s", "s", median(lats))
	tail, pct := tailPercentile(lats)
	b.set("op_tail_s", "s", tail)
	b.notes = append(b.notes, fmt.Sprintf("op_tail_s is p%.1f of %d samples", pct, len(lats)))
	b.set("ops_per_s", "1/s", float64(completed)/elapsed.Seconds())
}

// okRatio sets ok_ratio: operations that completed and passed their check,
// over operations attempted.
func (b *bench) okRatio() {
	if b.attempted == 0 {
		b.set("ok_ratio", "ratio", 0)
		return
	}
	b.set("ok_ratio", "ratio", float64(b.attempted-b.failed)/float64(b.attempted))
}

// volumeMetrics sets the paper's volume quantities from per-rank sent
// bytes of one operation.
func (b *bench) volumeMetrics(sent []int64) {
	var total, mx int64
	for _, s := range sent {
		total += s
		if s > mx {
			mx = s
		}
	}
	mean := float64(total) / float64(len(sent))
	b.set("max_rank_sent_mb", "MB", float64(mx)/1e6)
	b.set("total_sent_mb", "MB", float64(total)/1e6)
	b.set("vol_imbalance", "ratio", float64(mx)/mean)
	b.count("max_rank_sent_bytes", float64(mx))
	b.count("total_sent_bytes", float64(total))
}

// heapMark is a TotalAlloc reading; allocMetric turns one into
// alloc_mb_per_op.
func heapMark() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (b *bench) allocMetric(before uint64, ops int) {
	if ops == 0 {
		ops = 1
	}
	b.set("alloc_mb_per_op", "MB", float64(heapMark()-before)/1e6/float64(ops))
}

// peakRSS sets peak_rss_mb: the median over the measurement window of
// each second's peak resident set. The process's lifetime maximum would
// also hold set-up and reference peaks, and whether a collection happened
// to land just before one of them moved it by a fifth from run to run.
func (b *bench) peakRSS() {
	b.set("peak_rss_mb", "MB", median(b.rssPeaks))
}

// rssEvery is the resident-set sampling period.
const rssEvery = 20 * time.Millisecond

// sampleRSS samples the resident set until stop is closed and returns each
// whole second's peak (at least one value: a shorter window returns its
// peak so far).
func sampleRSS(stop <-chan struct{}) []float64 {
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	var peaks []float64
	start, sec, cur := time.Now(), 0, residentMiB()
	for {
		select {
		case <-stop:
			if len(peaks) == 0 {
				peaks = append(peaks, max(cur, residentMiB()))
			}
			return peaks
		case now := <-tick.C:
			if s := int(now.Sub(start) / time.Second); s > sec {
				peaks = append(peaks, cur)
				sec, cur = s, 0
			}
			cur = max(cur, residentMiB())
		}
	}
}

// residentMiB reads the resident set size from /proc/self/statm (Linux).
func residentMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// timeSetup runs fn at least setupReps times and until the runs together
// took setupBudget (once in smoke mode), and sets setup_s to the median
// duration. fn receives the repetition index; the caller keeps the last
// repetition's state.
func (b *bench) timeSetup(fn func(rep int) error) error {
	var ds []float64
	var total time.Duration
	done := func(rep int) bool {
		if b.cfg.Smoke {
			return rep >= 1
		}
		return rep >= setupReps && total >= setupBudget
	}
	for rep := 0; !done(rep); rep++ {
		// Each set-up starts from a collected heap, so the previous
		// repetition's garbage neither slows it nor stacks on its peak.
		runtime.GC()
		t0 := time.Now()
		if err := fn(rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		total += d
		ds = append(ds, d.Seconds())
	}
	b.set("setup_s", "s", median(ds))
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailPercentile returns the highest order statistic with at least ten
// samples above it, and its percentile rank. Below eleven samples there is
// no such statistic and the maximum is returned (rank 100).
func tailPercentile(xs []float64) (float64, float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 11 {
		return s[n-1], 100
	}
	k := n - 11 // s[k] has exactly ten samples beyond it
	return s[k], 100 * float64(k+1) / float64(n)
}

// relErr is max|a-b| / max|b|, the tolerance measure of every check.
func relErr(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var num, den float64
	for i := range a {
		num = math.Max(num, math.Abs(a[i]-b[i]))
		den = math.Max(den, math.Abs(b[i]))
	}
	if den == 0 {
		return num
	}
	return num / den
}

// checkRepeat compares this run's deterministic counts with the record of
// an earlier run of the same build, workload, seed and mode, and writes the
// record when there is none. A difference means nondeterminism in the
// program or a benchmark bug. Records are kept per build (a digest of the
// executable), so a changed program never meets a stale record.
func (b *bench) checkRepeat() error {
	if b.cfg.StateDir == "" {
		return nil
	}
	build, err := buildDigest()
	if err != nil {
		return err
	}
	dir := filepath.Join(b.cfg.StateDir, "repeat", build)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", b.cfg.Workload, b.cfg.Seed, b.cfg.Trace))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		for name, v := range b.counts {
			if pv, ok := prev[name]; ok && pv != v {
				return fmt.Errorf("%s = %v, an earlier run with this seed had %v", name, v, pv)
			}
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(b.counts, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// buildDigest identifies the running executable by a prefix of its SHA-256.
func buildDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// spanLog keeps the benchmark's own spans in memory: one around each call
// into a layer, tied to the operation it served. It records nothing in
// untraced runs.
type spanLog struct {
	on   bool
	t0   time.Time
	mu   sync.Mutex
	list []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Op     int    `json:"op"`     // operation index; -1 set-up, -2 layer probe
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	opSetup = -1
	opProbe = -2
)

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, t0: time.Now()} }

// begin opens a span and returns its ID and the function that closes it.
func (l *spanLog) begin(parent, op int, name string) (int, func()) {
	if !l.on {
		return 0, func() {}
	}
	start := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	id := len(l.list) + 1
	l.list = append(l.list, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: -1})
	l.mu.Unlock()
	return id, func() {
		end := time.Since(l.t0).Nanoseconds()
		l.mu.Lock()
		l.list[id-1].End = end
		l.mu.Unlock()
	}
}

// timed runs fn inside a span and returns its duration in seconds.
func (l *spanLog) timed(parent, op int, name string, fn func()) float64 {
	_, end := l.begin(parent, op, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	end()
	return d
}

// spanSummary aggregates spans by name: count, total and self time (span
// time minus the time its direct children cover).
type spanSummary struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (l *spanLog) summary() map[string]*spanSummary {
	child := make([]int64, len(l.list)+1)
	for _, s := range l.list {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanSummary{}
	for _, s := range l.list {
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.Name] = sum
		}
		d := s.End - s.Start
		sum.Count++
		sum.TotalS += float64(d) / 1e9
		sum.SelfS += float64(d-child[s.ID]) / 1e9
	}
	return out
}

// writeSpans writes the span file of a traced run: environment, spans,
// per-name summary and the per-layer metrics.
func (b *bench) writeSpans(env map[string]any) error {
	dir := filepath.Join(b.cfg.StateDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.cfg.Workload, b.cfg.Seed))
	data, err := json.MarshalIndent(map[string]any{
		"env":     env,
		"spans":   b.spans.list,
		"summary": b.spans.summary(),
		"metrics": b.metrics,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	b.notes = append(b.notes, "span file: "+path)
	return nil
}
