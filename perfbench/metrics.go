package main

// metricSpec names one reported metric and its unit. The two lists below
// are exactly the end_to_end and per_layer lists of BENCHMARK.json (the
// self-test checks that they agree).
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Timings are per-op medians of
// span self time unless the README says otherwise; counts and ratios are
// totals over the run.
var perLayer = []metricSpec{
	{"knnshapley.new_ms", "ms"},
	{"knn.precomp_ms", "ms"},
	{"dataset.fingerprint_ms", "ms"},
	{"knn.scan_ms", "ms"},
	{"knn.scan_bytes", "bytes"},
	{"knn.scan_gbps", "GB/s"},
	{"vec.argsort_ms", "ms"},
	{"kheap.topk_ms", "ms"},
	{"core.recurrence_ms", "ms"},
	{"core.reduce_ms", "ms"},
	{"core.parallel_efficiency", "ratio"},
	{"cluster.scan_ms", "ms"},
	{"cluster.rank_build_ms", "ms"},
	{"cluster.replay_ms", "ms"},
	{"cluster.from_scratch", "count"},
	{"cluster.patches", "count"},
	{"cluster.patch_ratio", "ratio"},
	{"cluster.rankcache_hit_ratio", "ratio"},
	{"cluster.rankcache_evictions", "count"},
	{"registry.put_ms", "ms"},
	{"registry.get_ms", "ms"},
	{"registry.apply_delta_ms", "ms"},
	{"registry.puts", "count"},
	{"registry.deltas", "count"},
	{"registry.disk_bytes_growth", "bytes"},
	{"registry.mem_evictions", "count"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.session_ms", "ms"},
	{"jobs.valuer_builds", "count"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"journal.append_ms", "ms"},
	{"journal.records", "count"},
	{"wire.decode_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"wire.request_bytes", "bytes"},
	{"wire.response_bytes", "bytes"},
	{"svserver.upload_ms", "ms"},
	{"svserver.value_ms", "ms"},
	{"svserver.delta_ms", "ms"},
	{"planner.picks.exact", "count"},
	{"planner.picks.truncated", "count"},
	{"planner.picks.montecarlo", "count"},
	{"planner.picks.lsh", "count"},
	{"planner.picks.kd", "count"},
	{"lsh.tune_ms", "ms"},
	{"core.lsh_build_ms", "ms"},
	{"lsh.tables", "count"},
	{"lsh.index_bytes", "bytes"},
	{"registry.index_put_ms", "ms"},
	{"registry.index_get_ms", "ms"},
	{"core.lsh_load_ms", "ms"},
	{"core.kd_build_ms", "ms"},
	{"core.kd_load_ms", "ms"},
	{"lsh.query_ms", "ms"},
	{"lsh.candidates_per_query", "count"},
	{"lsh.recall", "ratio"},
	{"lsh.eps_miss_ratio", "ratio"},
	{"kdtree.query_ms", "ms"},
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"unattributed_ms", "ms"},
	{"value_err_max", "value"},
}

// unitOf returns the declared unit of a metric name.
func unitOf(name string) (string, bool) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit, true
			}
		}
	}
	return "", false
}
