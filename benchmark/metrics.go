package main

// metricDef is one named metric as BENCHMARK.json lists it. measuredOn
// names the workloads whose runs measure it; every run prints every
// metric, and one a workload does not measure reads 0 there.
type metricDef struct {
	name       string
	unit       string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only
	measuredOn string  // per-layer only; "all" or a workload list
}

// End-to-end metrics: reported by every workload's untraced run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.15},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// Per-layer metrics: reported by every workload's traced run.
var perLayer = []metricDef{
	{name: "trace.overhead_share", unit: "ratio", better: "lower", measuredOn: "all"},
	{name: "separation.dominant_share", unit: "ratio", better: "higher", measuredOn: "all"},
	{name: "fail_ratio", unit: "ratio", better: "lower", measuredOn: "all"},
	{name: "share.minipy", unit: "ratio", better: "lower", measuredOn: "all"},
	{name: "share.directive", unit: "ratio", better: "lower", measuredOn: "all"},
	{name: "share.transform", unit: "ratio", better: "lower", measuredOn: "all"},
	{name: "share.compile", unit: "ratio", better: "lower", measuredOn: "all"},
	{name: "share.interp", unit: "ratio", better: "lower", measuredOn: "all"},
	{name: "share.rt", unit: "ratio", better: "lower", measuredOn: "all"},
	{name: "share.mpi", unit: "ratio", better: "lower", measuredOn: "all"},
	{name: "share.serve", unit: "ratio", better: "lower", measuredOn: "all"},
	{name: "share.bench", unit: "ratio", better: "lower", measuredOn: "all"},
	{name: "op_p95_ms", unit: "ms", better: "lower", measuredOn: "all"},
	{name: "par_efficiency", unit: "ratio", better: "higher", measuredOn: "paper-dt paper-interp"},

	{name: "minipy.lex_ns_per_token", unit: "ns", better: "lower", measuredOn: "cold-load"},
	{name: "minipy.parse_ns_per_token", unit: "ns", better: "lower", measuredOn: "cold-load"},
	{name: "minipy.tokens", unit: "count", better: "lower", measuredOn: "cold-load"},
	{name: "directive.parse_ns", unit: "ns", better: "lower", measuredOn: "cold-load"},
	{name: "directive.count", unit: "count", better: "lower", measuredOn: "cold-load"},
	{name: "transform.us_per_directive", unit: "us", better: "lower", measuredOn: "cold-load"},
	{name: "transform.module_us", unit: "us", better: "lower", measuredOn: "cold-load"},
	{name: "compile.install_us", unit: "us", better: "lower", measuredOn: "cold-load"},
	{name: "compile.install_dt_us", unit: "us", better: "lower", measuredOn: "cold-load"},
	{name: "interp.run_module_us", unit: "us", better: "lower", measuredOn: "cold-load"},

	{name: "compile.kernel_ns_per_iter", unit: "ns", better: "lower", measuredOn: "paper-dt"},
	{name: "compile.kernel_loops", unit: "count", better: "higher", measuredOn: "paper-dt"},
	{name: "compile.native_gap", unit: "ratio", better: "lower", measuredOn: "paper-dt"},
	{name: "compile.bridge_ns_per_chunk", unit: "ns", better: "lower", measuredOn: "sched-dyn"},
	{name: "interp.allocs_per_op", unit: "count", better: "lower", measuredOn: "paper-interp"},
	{name: "interp.hybrid_over_compiled", unit: "ratio", better: "lower", measuredOn: "paper-interp"},

	{name: "rt.forkjoin_ns.t1", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.forkjoin_ns.tn", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.barrier_ns", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.static_ns_per_iter", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.dynamic_claim_ns", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.guided_claim_ns", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.critical_ns", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.reduce_merge_ns", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.task_spawn_ns", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.depend_release_ns", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.forkjoin_ns.t1.mutex", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.forkjoin_ns.tn.mutex", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.barrier_ns.mutex", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.static_ns_per_iter.mutex", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.dynamic_claim_ns.mutex", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.guided_claim_ns.mutex", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.critical_ns.mutex", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.reduce_merge_ns.mutex", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.task_spawn_ns.mutex", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.depend_release_ns.mutex", unit: "ns", better: "lower", measuredOn: "rt-fine"},
	{name: "rt.task_steal_share", unit: "ratio", better: "higher", measuredOn: "rt-fine"},
	{name: "rt.barrier_wait_share", unit: "ratio", better: "lower", measuredOn: "paper-dt paper-interp sched-dyn"},
	{name: "rt.mutex_over_atomic", unit: "ratio", better: "lower", measuredOn: "rt-fine"},
	{name: "ompt.tracer_overhead_share", unit: "ratio", better: "lower", measuredOn: "rt-fine"},
	{name: "prof.overhead_share", unit: "ratio", better: "lower", measuredOn: "rt-fine"},

	{name: "mpi.sweep_ms", unit: "ms", better: "lower", measuredOn: "mpi-tcp"},
	{name: "mpi.rtt_us", unit: "us", better: "lower", measuredOn: "mpi-tcp"},
	{name: "mpi.rtt_us.64k", unit: "us", better: "lower", measuredOn: "mpi-tcp"},
	{name: "mpi.allreduce_us", unit: "us", better: "lower", measuredOn: "mpi-tcp"},
	{name: "mpi.barrier_us", unit: "us", better: "lower", measuredOn: "mpi-tcp"},
	{name: "mpi.msgs_per_sweep", unit: "count", better: "lower", measuredOn: "mpi-tcp"},
	{name: "mpi.bytes_per_sweep", unit: "count", better: "lower", measuredOn: "mpi-tcp"},
	{name: "mpi.batches_per_sweep", unit: "count", better: "lower", measuredOn: "mpi-tcp"},
	{name: "mpi.coalesce_ratio", unit: "ratio", better: "higher", measuredOn: "mpi-tcp"},
	{name: "mpi.recv_wait_share", unit: "ratio", better: "lower", measuredOn: "mpi-tcp"},
	{name: "mpi.local_sweep_ms", unit: "ms", better: "lower", measuredOn: "mpi-tcp"},

	{name: "serve.overhead_ms", unit: "ms", better: "lower", measuredOn: "serve-closed"},
	{name: "serve.short_p50_ms", unit: "ms", better: "lower", measuredOn: "serve-closed"},
	{name: "serve.medium_p50_ms", unit: "ms", better: "lower", measuredOn: "serve-closed"},
	{name: "serve.stream_p50_ms", unit: "ms", better: "lower", measuredOn: "serve-closed"},
	{name: "serve.req_p99_ms", unit: "ms", better: "lower", measuredOn: "serve-closed"},
	{name: "serve.shed_ratio", unit: "ratio", better: "lower", measuredOn: "serve-closed"},
}
