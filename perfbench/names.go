package main

import "fmt"

// endToEnd lists the metrics of an untraced run, with their units; the
// smoke test holds BENCHMARK.json to the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"op_tail_s", "s"},
	{"ops_per_s", "1/s"},
	{"ok_ratio", "ratio"},
	{"max_rank_sent_mb", "MB"},
	{"vol_imbalance", "ratio"},
	{"total_sent_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"sim_makespan_s", "s"},
}

// perLayer lists the metrics of a traced run, grouped by module. A
// workload that does not exercise a module (the server on dg_selinv_p16,
// say) reports that module's metrics as 0.
var perLayer = []metricDef{
	{"ordering.compute_s", "s"},
	{"etree.analyze_s", "s"},
	{"etree.supernodes", "count"},
	{"etree.mean_snode_width", "cols"},
	{"etree.nnz_l", "count"},
	{"factor.factorize_s", "s"},
	{"factor.pole_factor_s", "s"},
	{"core.plan_build_s", "s"},
	{"core.collectives", "count"},
	{"core.flop_imbalance", "ratio"},
	{"pselinv.run_s", "s"},
	{"pselinv.gemm_busy_s", "s"},
	{"pselinv.trsm_busy_s", "s"},
	{"pselinv.diag_inverse_busy_s", "s"},
	{"pselinv.col_bcast_s", "s"},
	{"pselinv.row_reduce_s", "s"},
	{"pselinv.dag_occupancy", "ratio"},
	{"pselinv.dag_tasks", "count"},
	{"dense.gemm_gflops", "GFLOP/s"},
	{"dense.trsm_gflops", "GFLOP/s"},
	{"dense.zgemm_gflops", "GFLOP/s"},
	{"dense.peak_gflops", "GFLOP/s"},
	{"dense.gemm_eff", "ratio"},
	{"dense.flops_per_op", "count"},
	{"simmpi.msgs_per_op", "count"},
	{"simmpi.col_bcast_mb", "MB"},
	{"simmpi.row_reduce_mb", "MB"},
	{"simmpi.recv_wait_s", "s"},
	{"simmpi.max_queue_depth", "count"},
	{"tcptransport.msgs_per_s", "1/s"},
	{"tcptransport.rtt_us", "us"},
	{"tcptransport.dial_retries", "count"},
	{"distrun.launch_s", "s"},
	{"distrun.worker_overhead_s", "s"},
	{"pexsi.factor_s_per_pole", "s"},
	{"pexsi.invert_s_per_pole", "s"},
	{"pexsi.overlap", "ratio"},
	{"pexsi.alloc_mb_per_pole", "MB"},
	{"server.analyze_ms", "ms"},
	{"server.factorize_ms", "ms"},
	{"server.invert_ms", "ms"},
	{"server.queue_s", "s"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"trace.overhead_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

// selectMetrics returns exactly the metrics of the run's mode. A metric of
// the mode the workload did not set is an error for end-to-end metrics
// and 0 (module not exercised) for per-layer ones; a unit that differs
// from the table is always an error.
func selectMetrics(all map[string]metric, traced bool) (map[string]metric, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := all[d.name]
		switch {
		case !ok && traced:
			m = metric{Value: 0, Unit: d.unit}
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return nil, fmt.Errorf("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
	}
	return out, nil
}
