package main

// metricDef names one reported number. The tables below are the same lists
// BENCHMARK.json carries (a test holds the two together); bound is the share
// of the parent's median by which an end-to-end metric may worsen.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"utilization", "ratio", "higher", 0.05},
}

var perLayer = []metricDef{
	{"kernel.gemm_calls_per_op", "count", "lower", 0},
	{"kernel.gemm_gflop_per_op", "GFLOP", "lower", 0},
	{"kernel.gemm_gflops", "GFLOP/s", "higher", 0},
	{"kernel.gemm_b1_gflops", "GFLOP/s", "higher", 0},
	{"kernel.gemm_share", "ratio", "higher", 0},
	{"nn.train_ms.q10", "ms", "lower", 0},
	{"nn.train_ms.q35", "ms", "lower", 0},
	{"nn.train_ms.q65", "ms", "lower", 0},
	{"nn.train_ms.q90", "ms", "lower", 0},
	{"nn.epoch_ms.q90", "ms", "lower", 0},
	{"nn.forward_ms.q90", "ms", "lower", 0},
	{"nn.backward_ms.q90", "ms", "lower", 0},
	{"nn.predict_ms", "ms", "lower", 0},
	{"nn.allocs_per_step", "count", "lower", 0},
	{"nn.forward_b1_us", "us", "lower", 0},
	{"nn.params.q10", "count", "lower", 0},
	{"nn.params.q35", "count", "lower", 0},
	{"nn.params.q65", "count", "lower", 0},
	{"nn.params.q90", "count", "lower", 0},
	{"arch.build_ms", "ms", "lower", 0},
	{"arch.build_allocs", "count", "lower", 0},
	{"search.eval_ms", "ms", "lower", 0},
	{"search.runner_overhead_us", "us", "lower", 0},
	{"search.tail_idle_ms", "ms", "lower", 0},
	{"search.checkpoint_bytes", "bytes", "lower", 0},
	{"worker.rpc_us", "us", "lower", 0},
	{"worker.rpc_p50_us", "us", "lower", 0},
	{"worker.pool_open_ms", "ms", "lower", 0},
	{"worker.pool_close_ms", "ms", "lower", 0},
	{"worker.redispatches", "count", "lower", 0},
	{"worker.crashes", "count", "lower", 0},
	{"jobs.submit_ms", "ms", "lower", 0},
	{"jobs.queue_wait_ms", "ms", "lower", 0},
	{"jobs.dispatch_ms", "ms", "lower", 0},
	{"jobs.settle_ms", "ms", "lower", 0},
	{"jobs.manifest_bytes_per_op", "bytes", "lower", 0},
	{"fsatomic.syncs_per_op", "count", "lower", 0},
	{"fsatomic.write_us", "us", "lower", 0},
	{"sst.generate_s", "s", "lower", 0},
	{"pod.compute_s", "s", "lower", 0},
	{"pod.project_s", "s", "lower", 0},
	{"window.build_ms", "ms", "lower", 0},
	{"pod.reconstruct_us", "us", "lower", 0},
	{"obs.trace_overhead_pct", "%", "lower", 0},
	{"obs.events_per_op", "count", "lower", 0},
	{"bench.span_overhead_pct", "%", "lower", 0},
	{"bench.rep_spread_pct", "%", "lower", 0},
	{"bench.spin_ratio", "ratio", "lower", 0},
	{"bench.op_p50_ms", "ms", "lower", 0},
	{"bench.op_tail_ms", "ms", "lower", 0},
	{"bench.op_tail_pct", "%", "higher", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
}

// worse reports by which share of a the value b is worse than a, in the
// metric's own direction (negative when b is better).
func (d metricDef) worse(a, b float64) float64 {
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
