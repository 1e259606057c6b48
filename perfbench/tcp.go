package main

import (
	"fmt"
	"os"
	"path/filepath"

	"pselinv/internal/core"
	"pselinv/internal/distrun"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// TCP probe parameters: launches of the DG_Water_12888 stand-in
// (DG2DRadius(12,12,5,2), n=720) on two worker processes, one per rank.
const (
	tcpProcs = 2
	// Launches per probe, plain and observed each.
	tcpLaunches = 5
)

// tcpLayers measures the multi-process path — distrun.Launch over the TCP
// mesh — as a layer probe of a traced run: plain launches for the launcher
// and transport rates, observed launches (each worker streams its
// telemetry back) for the round-trip time. Every launch is checked against
// the in-process run of the plan the workers build.
//
// A launch is mostly the workers' own start-up: parsing the staged matrix
// and rebuilding the pipeline in fresh processes. Its wall time swings with
// the host's memory and scheduling load far more than the in-process
// workloads do, too far to hold an end-to-end bound, so it is measured
// here rather than as a workload of its own.
func (b *bench) tcpLayers() error {
	gen := sparse.DG2DRadius(12, 12, 5, 2, b.cfg.Seed)
	ps := planSpec{procs: tcpProcs, scheme: core.ShiftedBinaryTree, seed: treeSeed(b.cfg.Seed), symmetric: true}
	dir, err := filepath.Abs(filepath.Join(b.cfg.StateDir, fmt.Sprintf("tcp-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spec, err := distrun.StageMatrix(dir, gen)
	if err != nil {
		return err
	}
	spec.Relax, spec.MaxWidth = relax, maxWidth
	spec.PR, spec.PC = 1, tcpProcs
	spec.Scheme, spec.Seed = ps.scheme, ps.seed
	spec.TimeoutSec = engineTimeout.Seconds()
	obsSpec := spec
	obsSpec.Obs = true
	specPath, err := distrun.WriteSpec(dir, &spec)
	if err != nil {
		return err
	}
	obsDir := filepath.Join(dir, "obs")
	if err := os.MkdirAll(obsDir, 0o755); err != nil {
		return err
	}
	obsPath, err := distrun.WriteSpec(obsDir, &obsSpec)
	if err != nil {
		return err
	}

	// Reference: the in-process run of the plan the workers build.
	_, _, eng, err := spec.Build()
	if err != nil {
		return err
	}
	ref, err := eng.Run(engineTimeout)
	if err != nil {
		return err
	}
	ref.Release()

	opts := &distrun.Options{Stderr: b.cfg.Log}
	// launch runs and checks one launch, returning it with its wall time
	// and message count.
	launch := func(path string, sp *distrun.Spec) (*distrun.Outcome, float64, int64, error) {
		var out *distrun.Outcome
		var err error
		d := b.spans.timed(0, opProbe, "distrun.Launch", func() { out, err = distrun.Launch(path, sp, opts) })
		if err != nil {
			return nil, 0, 0, err
		}
		if err := checkTCP(out, ref.World); err != nil {
			b.incorrect = true
			return nil, 0, 0, err
		}
		var msgs int64
		for _, r := range out.Results {
			for _, v := range r.SentMsgs {
				msgs += v
			}
		}
		b.count("tcp.msgs", float64(msgs))
		return out, d, msgs, nil
	}

	n := tcpLaunches
	if b.cfg.Smoke {
		n = 1
	}
	var launches, overhead, rate, rtts []float64
	var dialRetries int64
	for i := 0; i < n; i++ {
		out, d, msgs, err := launch(specPath, &spec)
		if err != nil {
			return fmt.Errorf("launch %d: %w", i, err)
		}
		for _, r := range out.Results {
			dialRetries += r.DialRetries
		}
		launches = append(launches, d)
		overhead = append(overhead, d-out.Elapsed.Seconds())
		rate = append(rate, float64(msgs)/out.Elapsed.Seconds())
	}
	for i := 0; i < n; i++ {
		out, _, _, err := launch(obsPath, &obsSpec)
		if err != nil {
			return fmt.Errorf("observed launch %d: %w", i, err)
		}
		for _, s := range out.Snapshots {
			if s == nil {
				continue
			}
			for _, c := range s.Clock {
				rtts = append(rtts, float64(c.RTTNS)/1e3)
			}
		}
	}
	b.set("distrun.launch_s", "s", median(launches))
	b.set("distrun.worker_overhead_s", "s", median(overhead))
	b.set("tcptransport.msgs_per_s", "1/s", median(rate))
	b.set("tcptransport.rtt_us", "us", median(rtts))
	b.set("tcptransport.dial_retries", "count", float64(dialRetries))
	return nil
}

// checkTCP verifies a launch: per-class, per-rank sent and received bytes
// equal the in-process run of the same plan, and globally every class's
// bytes and messages sent were received (launcher conservation).
func checkTCP(out *distrun.Outcome, ref *simmpi.World) error {
	for _, c := range simmpi.Classes() {
		sent, recv := out.SentBytes(c), out.RecvBytes(c)
		var sb, rb, sm, rm int64
		for r := range sent {
			if sent[r] != ref.SentBytes(r, c) || recv[r] != ref.RecvBytes(r, c) {
				return fmt.Errorf("%v rank %d: sent/recv %d/%d bytes, in-process %d/%d",
					c, r, sent[r], recv[r], ref.SentBytes(r, c), ref.RecvBytes(r, c))
			}
			sb += sent[r]
			rb += recv[r]
			sm += out.Results[r].SentMsgs[c]
			rm += out.Results[r].RecvMsgs[c]
		}
		if sb != rb || sm != rm {
			return fmt.Errorf("%v: %d bytes / %d msgs sent, %d / %d received", c, sb, sm, rb, rm)
		}
	}
	return nil
}
