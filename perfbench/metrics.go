package main

// layerMetrics lists every per-layer metric a traced run reports, with its
// unit, in the order of BENCHMARK.json. README.md says which end-to-end
// metric each should move, and on which workload.
var layerMetrics = []struct{ name, unit string }{
	{"engine.us_per_cell", "us"},
	{"engine.decisions_per_cell", "count"},
	{"engine.allocs_per_cell", "allocs"},
	{"core.compile_us_per_cell", "us"},
	{"core.compiles_per_req", "count"},
	{"sweep.us_per_cell", "us"},
	{"sweep.allocs_per_cell", "allocs"},
	{"spec.us_per_req", "us"},
	{"service.digest_us_per_cell", "us"},
	{"service.us_per_cell", "us"},
	{"service.allocs_per_cell", "allocs"},
	{"service.compile_cache_hit_ratio", "ratio"},
	{"store.us_per_cell", "us"},
	{"store.hit_us_per_cell", "us"},
	{"store.lookup_us_per_req", "us"},
	{"store.put_us_per_cell", "us"},
	{"store.hit_ratio", "ratio"},
	{"store.allocs_per_cell", "allocs"},
	{"store.replay_s", "s"},
	{"jobs.us_per_cell", "us"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"search.ms_per_cell", "ms"},
	{"search.states_per_cell", "count"},
	{"search.lp_bounds_per_cell", "count"},
	{"search.lp_prune_ratio", "ratio"},
	{"search.memo_hit_ratio", "ratio"},
	{"search.prune_ratio", "ratio"},
	{"search.ns_per_state", "ns"},
	{"search.allocs_per_cell", "allocs"},
	{"session.step_us_p50", "us"},
	{"session.step_us_p99", "us"},
	{"session.open_us", "us"},
	{"session.allocs_per_step", "allocs"},
	{"http.tax_us_per_op", "us"},
	{"http.server_ms_p50", "ms"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"obs.self_us.service.sweep", "us"},
	{"obs.self_us.store.lookup", "us"},
	{"obs.self_us.store.commit", "us"},
	{"obs.self_us.sweep.cell", "us"},
	{"http.responses_4xx", "count"},
	{"http.responses_5xx", "count"},
	{"http.shed_total", "count"},
	{"store.append_errors", "count"},
	{"loadgen.cpu_us_per_op", "us"},
}

// e2eMetrics lists every end-to-end metric an untraced run reports, with
// its unit, in the order of BENCHMARK.json.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"server_cpu_us_per_op", "us"},
	{"server_peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
}
