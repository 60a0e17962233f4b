package main

// spec names one printed metric and its unit. The tables below are the
// benchmark's side of BENCHMARK.json; the self-test keeps them equal.
type spec struct{ name, unit string }

// endToEnd is printed with --trace 0, on every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"analyze_s", "s"},
	{"peak_heap_mb", "MB"},
	{"retained_heap_mb", "MB"},
	{"query_p50_us", "us"},
	{"ok_frac", "ratio"},
	{"precise_frac", "ratio"},
}

// perLayer is printed with --trace 1, on every workload; a layer a
// workload does not exercise reads 0.
var perLayer = []spec{
	// Too unsteady from run to run on a shared 2-core machine to carry a
	// bound (see README.md): reported here, measured as in the untraced
	// run.
	{"query_p99_us", "us"},
	{"edit_p50_ms", "ms"},
	{"edit_p90_ms", "ms"},
	{"ops_per_s", "ops/s"},

	{"frontend.lower_ms", "ms"},
	{"frontend.lower_alloc_mb", "MB"},
	{"frontend.ir_nodes", "count"},

	{"steens.analyze_ms", "ms"},
	{"steens.alloc_mb", "MB"},
	{"steens.partitions", "count"},
	{"steens.max_partition", "count"},

	{"cluster.slice_ms", "ms"},
	{"cluster.slice_stmts", "count"},
	{"cluster.cover_ms", "ms"},
	{"cluster.cover_alloc_mb", "MB"},
	{"cluster.oversized_partitions", "count"},
	{"cluster.clusters", "count"},
	{"cluster.max_cluster", "count"},

	{"andersen.fallback_ms", "ms"},
	{"andersen.fallback_alloc_mb", "MB"},
	{"andersen.passes", "count"},
	{"andersen.delta_edges_fired", "count"},

	{"callgraph.build_ms", "ms"},

	{"fscs.engine_new_ms", "ms"},
	{"fscs.summary_ms", "ms"},
	{"fscs.values_ms", "ms"},
	{"fscs.engine_new_alloc_mb", "MB"},
	{"fscs.summary_alloc_mb", "MB"},
	{"fscs.values_alloc_mb", "MB"},
	{"fscs.tuples", "count"},
	{"fscs.summaries_built", "count"},
	{"fscs.intern_hit_ratio", "ratio"},
	{"fscs.cluster_p50_ms", "ms"},
	{"fscs.cluster_max_ms", "ms"},
	{"fscs.engine_retained_kb", "KB"},

	{"cache.key_ms", "ms"},
	{"cache.probe_ms", "ms"},
	{"cache.import_ms", "ms"},
	{"cache.import_alloc_mb", "MB"},
	{"cache.store_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.entry_kb", "KB"},

	{"ir.clone_ms", "ms"},
	{"ir.apply_edits_us", "us"},

	{"core.fscs_busy_ms", "ms"},
	{"core.fscs_wall_ms", "ms"},
	{"core.parallel_efficiency", "ratio"},
	{"core.demoted", "count"},
	{"core.ladder_retries", "count"},
	{"core.applyedit_p50_ms", "ms"},
	{"core.applyedit_p90_ms", "ms"},
	{"core.edit_dirty_frac", "ratio"},
	{"core.edit_fallbacks", "count"},
	{"core.query_p50_us", "us"},
	{"core.query_p99_us", "us"},
	{"core.cold_query_frac", "ratio"},
	{"core.ensure_cluster_ms", "ms"},

	{"serve.overhead_p50_us", "us"},
	{"serve.shed", "count"},
	{"serve.coalesced_edits", "count"},
	{"serve.warm_frac", "ratio"},

	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb", "MB"},

	{"failed_frac", "ratio"},
	{"degraded_frac", "ratio"},

	{"trace.wall_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.spans", "count"},
}

// metricUnits maps every metric name to its unit.
var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, set := range [][]spec{endToEnd, perLayer} {
		for _, s := range set {
			m[s.name] = s.unit
		}
	}
	return m
}()
