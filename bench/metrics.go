package main

// The two tables below are the metric catalogue, in BENCHMARK.json's own
// entry type (compare.go); smoke_test.go holds the file equal to them. An
// end-to-end entry's Bound is the share of the parent's median by which it
// may get worse before a change counts as a regression.

// endToEnd are the metrics an engineer running a batch fit or an online
// endpoint sees. Every workload reports every one: an operation is a fit on
// the fit workloads and a request on serve-mixed.
var endToEnd = []contractMetric{
	// Median of the run's set-ups: data generation, file writes, the
	// reference fit or model training, server start.
	{"setup_s", "s", "lower", 0.25},
	// Fit: rows × iterations ÷ median wall of safe.Fit (source open →
	// result). Serve: rows answered ÷ wall of the closed-loop phase.
	{"rows_per_s", "rows/s", "higher", 0.25},
	// Fit: median wall of the fit process, start to exit — what a cmd/safe
	// user waits. Serve: median open-loop latency, timed from when the
	// request was due.
	{"latency_p50_ms", "ms", "lower", 0.25},
	// Bytes allocated per row: median TotalAlloc delta across a fit ÷ input
	// rows (whole process, so in-process dist workers count); on
	// serve-mixed the closed-loop phase's delta ÷ rows answered.
	{"alloc_kb_per_row", "KB/row", "lower", 0.05},
}

// perLayer are the layer metrics of the traced run; see README.md for how
// each is taken and which end-to-end metric it should move. A workload
// reports 0 for a layer its engine does not use.
var perLayer = []contractMetric{
	{"core.pre_iteration_s", "s", "lower", 0},
	{"core.stage_s.mine", "s", "lower", 0},
	{"core.stage_s.score", "s", "lower", 0},
	{"core.stage_s.generate", "s", "lower", 0},
	{"core.stage_s.iv-filter", "s", "lower", 0},
	{"core.stage_s.pearson", "s", "lower", 0},
	{"core.stage_s.rank", "s", "lower", 0},
	{"core.stage_cover", "ratio", "higher", 0},
	{"core.candidates", "count", "lower", 0},
	{"core.selected", "count", "higher", 0},
	{"core.survivor_ratio", "ratio", "higher", 0},
	{"core.transform_rows_per_s.b64", "rows/s", "higher", 0},
	{"core.transform_rows_per_s.b4096", "rows/s", "higher", 0},

	{"gbdt.train_s", "s", "lower", 0},
	{"gbdt.train_binned_s", "s", "lower", 0},
	{"gbdt.predict_rows_per_s", "rows/s", "higher", 0},
	{"operators.apply_ns_per_row", "ns/row", "lower", 0},
	{"stats.iv_ns_per_row", "ns/row", "lower", 0},
	{"stats.pearson_ns_per_row", "ns/row", "lower", 0},

	{"sketch.ingest_ns_per_row", "ns/row", "lower", 0},
	{"sketch.merge_us", "us", "lower", 0},
	{"sketch.refine_ns_per_row", "ns/row", "lower", 0},
	{"sketch.hist_ns_per_row", "ns/row", "lower", 0},
	{"sketch.gram_ns_per_row", "ns/row", "lower", 0},
	{"sketch.wire_encode_mb_per_s", "MB/s", "higher", 0},
	{"sketch.wire_decode_mb_per_s", "MB/s", "higher", 0},

	{"shard.passes", "count", "lower", 0},
	{"shard.rows_streamed", "count", "lower", 0},
	{"shard.blocks_skipped", "count", "higher", 0},
	{"shard.retries", "count", "lower", 0},
	{"shard.max_rank_error", "count", "lower", 0},

	{"frame.next_busy_s", "s", "lower", 0},
	{"frame.chunks", "count", "lower", 0},
	{"frame.csv_parse_mb_per_s", "MB/s", "higher", 0},
	{"colstore.scan_mb_per_s.mmap", "MB/s", "higher", 0},
	{"colstore.scan_mb_per_s.stream", "MB/s", "higher", 0},
	{"colstore.write_mb_per_s", "MB/s", "higher", 0},

	{"dist.pass_s.base-sketch", "s", "lower", 0},
	{"dist.pass_s.codes", "s", "lower", 0},
	{"dist.pass_s.score", "s", "lower", 0},
	{"dist.pass_s.sketch-gen", "s", "lower", 0},
	{"dist.pass_s.refine", "s", "lower", 0},
	{"dist.pass_s.hist", "s", "lower", 0},
	{"dist.pass_s.gram-codes", "s", "lower", 0},
	{"dist.fold_s", "s", "lower", 0},
	{"dist.wait_s", "s", "lower", 0},
	{"dist.send_bytes", "count", "lower", 0},
	{"dist.recv_bytes", "count", "lower", 0},
	{"dist.frames", "count", "lower", 0},
	{"dist.partial_bytes", "count", "lower", 0},
	{"dist.recv_wait_s", "s", "lower", 0},
	{"dist.retries", "count", "lower", 0},
	{"dist.overhead_frac", "ratio", "lower", 0},

	{"par.speedup", "ratio", "higher", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.cpu_s", "s", "lower", 0},
	{"proc.cpu_util", "ratio", "higher", 0},
	{"proc.allocs", "count", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"mem.live_heap_peak_mb", "MB", "lower", 0},

	{"serve.p50_ms", "ms", "lower", 0},
	{"serve.p99_ms", "ms", "lower", 0},
	{"serve.handler_p50_us", "us", "lower", 0},
	{"serve.server_p50_us", "us", "lower", 0},
	{"serve.server_p99_us", "us", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.hot_p50_ms", "ms", "lower", 0},
	{"serve.cold_p50_ms", "ms", "lower", 0},
	{"serve.predict_p50_ms", "ms", "lower", 0},
	{"serve.transform_p50_ms", "ms", "lower", 0},
	{"serve.req_bytes", "count", "lower", 0},
	{"serve.resp_bytes", "count", "lower", 0},
	{"serve.late_frac", "ratio", "lower", 0},
	{"serve.backlog_max", "count", "lower", 0},

	{"trace.overhead_frac", "ratio", "lower", 0},
	{"host.speed", "ratio", "higher", 0},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report turns measured values into the result's metric object, in the
// catalogue's units; a catalogue entry without a measured value reports 0.
func report(defs []contractMetric, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
