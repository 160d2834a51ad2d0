package main

// metricDef names one metric. The two tables below are the benchmark's
// declaration of what it measures; metrics_test.go holds them equal to
// BENCHMARK.json, which is what the driver reads.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the server sees. Every workload reports every
// one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p90_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"write_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"wal_bytes_per_user_byte", "B/B", "lower", 0.05},
}

// coreMethods are the optimizers probed, by the spelling sjos.ParseMethod
// takes and the one the metric names use.
var coreMethods = []struct{ parse, metric string }{
	{"DP", "dp"}, {"DPP", "dpp"}, {"DPAP-EB", "dpap-eb"}, {"DPAP-LD", "dpap-ld"}, {"FP", "fp"}, {"Greedy", "greedy"},
}

// perLayer lists one layer's metrics after another, outside in.
var perLayer = func() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "higher"} }
	m := []metricDef{
		// The generator's own view of the served sample.
		lower("client.http_p50_ms", "ms"),
		lower("client.lat_p99_ms", "ms"),
		higher("client.samples", "count"),
		lower("client.write_p90_ms", "ms"),
		lower("trace.unexplained_share", "share"),
		// cmd/xqserve
		lower("xqserve.overhead_ms", "ms"),
		lower("xqserve.render_ns_per_row", "ns"),
		lower("xqserve.resp_bytes_per_row", "B"),
		lower("xqserve.put_overhead_ms", "ms"),
		// root package, read path
		lower("corpus.query_ms", "ms"),
		lower("corpus.result_path_ns_per_row", "ns"),
		lower("corpus.alloc_bytes_per_row", "B"),
		lower("corpus.allocs_per_row", "count"),
		// internal/pattern, internal/plancache
		lower("pattern.parse_us", "us"),
		lower("pattern.fingerprint_us", "us"),
		lower("plancache.hit_ns", "ns"),
		higher("plancache.hit_rate", "share"),
	}
	// internal/core, per optimizer, over the plan_cold templates
	for _, cm := range coreMethods {
		m = append(m,
			lower("core."+cm.metric+".plan_ms", "ms"),
			lower("core."+cm.metric+".exec_ms", "ms"),
			lower("core."+cm.metric+".plans_considered", "count"))
	}
	return append(m,
		// internal/histogram
		lower("histogram.build_ms", "ms"),
		lower("histogram.merge_us", "us"),
		lower("histogram.estimate_ns", "ns"),
		lower("histogram.qerror_p50", "ratio"),
		lower("histogram.qerror_max", "ratio"),
		// internal/exec
		lower("exec.count_ms", "ms"),
		higher("exec.rows_per_s", "1/s"),
		// internal/storage
		lower("storage.build_ms", "ms"),
		lower("storage.scan_warm_ns_per_posting", "ns"),
		lower("storage.scan_cold_ns_per_posting", "ns"),
		higher("storage.pool_hit_rate", "share"),
		lower("storage.probe_us", "us"),
		lower("storage.wal_append_us", "us"),
		lower("storage.wal_pages_per_doc", "count"),
		lower("storage.wal_replay_ms", "ms"),
		// internal/xmltree
		lower("xmltree.parse_ms", "ms"),
		// root package, write path
		lower("ingest.insert_ms", "ms"),
		lower("ingest.replace_ms", "ms"),
		lower("ingest.delete_ms", "ms"),
		lower("ingest.compactions", "count"),
		lower("ingest.compact_write_ms", "ms"),
	)
}()
