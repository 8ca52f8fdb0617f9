package main

// metricSpec declares one metric the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units and directions (the schema
// test keeps the two in step); the per-layer fields here add what that file
// has no room for: the layer measured, where the value comes from, and which
// end-to-end metric on which workloads it is expected to move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// Bound is, for an end-to-end metric, the share of the previous median
	// by which it may worsen before a change counts as a regression.
	Bound float64

	// Layer is the module a per-layer metric measures.
	Layer string
	// From says where a per-layer value is taken: "ops" from the workload's
	// own traced operations, "probe" from direct calls into the layer's API
	// on seeded inputs, "fleet" and "daemon" from the discovery and daemon
	// sessions (the workload itself on discover-fleet and daemon-mixed, a
	// short session of that workload elsewhere).
	From string
	// Moves and On name the end-to-end metric a per-layer metric should move
	// and the workloads where it should move it.
	Moves string
	On    []string
}

const (
	wPairL     = "pair-L"
	wPairLMN   = "pair-LMN"
	wFleet     = "discover-fleet"
	wDaemon    = "daemon-mixed"
	fromOps    = "ops"
	fromProbe  = "probe"
	fromFleet  = "fleet"
	fromDaemon = "daemon"
)

var (
	pairs     = []string{wPairL, wPairLMN}
	onPairL   = []string{wPairL}
	onPairLMN = []string{wPairLMN}
	onFleet   = []string{wFleet}
	onDaemon  = []string{wDaemon}
	searching = []string{wPairL, wPairLMN, wFleet}
)

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "alloc_mb_per_op", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "recall", Unit: "ratio", Better: "higher", Bound: 0.10},
}

// perLayer are the metrics of single layers, reported by every workload's
// traced run.
var perLayer = []metricSpec{
	// core and lahc: per core search, from the observer of every search the
	// workload runs (pair searches, discovery confirmations, daemon searches).
	{Name: "core.windows_evaluated", Unit: "count", Better: "lower", Layer: "core", From: fromOps, Moves: "lat_p50_ms", On: pairs},
	{Name: "core.restarts", Unit: "count", Better: "lower", Layer: "core", From: fromOps, Moves: "lat_p50_ms", On: pairs},
	{Name: "lahc.iterations", Unit: "count", Better: "lower", Layer: "lahc", From: fromOps, Moves: "lat_p50_ms", On: pairs},
	{Name: "core.mi_batch", Unit: "count", Better: "lower", Layer: "core", From: fromOps, Moves: "lat_p50_ms", On: onPairLMN},
	{Name: "core.mi_incremental", Unit: "count", Better: "lower", Layer: "core", From: fromOps, Moves: "lat_p50_ms", On: onPairLMN},
	{Name: "core.noise.pruned_directions", Unit: "count", Better: "higher", Layer: "core", From: fromOps, Moves: "lat_p50_ms", On: onPairLMN},
	{Name: "core.noise.blocks_skipped", Unit: "count", Better: "higher", Layer: "core", From: fromOps, Moves: "lat_p50_ms", On: onPairLMN},
	{Name: "core.phase.validate_ms", Unit: "ms", Better: "lower", Layer: "core", From: fromOps, Moves: "lat_p50_ms", On: pairs},
	{Name: "core.phase.climb_ms", Unit: "ms", Better: "lower", Layer: "core", From: fromOps, Moves: "lat_p50_ms", On: pairs},
	{Name: "core.phase.finalize_ms", Unit: "ms", Better: "lower", Layer: "core", From: fromOps, Moves: "lat_p50_ms", On: pairs},
	{Name: "core.climb_ns_per_window", Unit: "ns", Better: "lower", Layer: "core", From: fromOps, Moves: "lat_p50_ms", On: pairs},

	// core and obs probes: the workload's own search, repeated under
	// different settings and compared within the run.
	{Name: "core.phase_coverage", Unit: "ratio", Better: "higher", Layer: "core", From: fromProbe, Moves: "lat_p50_ms", On: pairs},
	{Name: "core.restart_scaling_2w", Unit: "ratio", Better: "higher", Layer: "core", From: fromProbe, Moves: "lat_p50_ms", On: onPairLMN},
	{Name: "obs.sink_overhead_pct", Unit: "%", Better: "lower", Layer: "obs", From: fromProbe, Moves: "lat_p50_ms", On: onDaemon},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "obs", From: fromProbe, Moves: "lat_p50_ms", On: searching},

	// mi and knn kernels: direct calls on windows of a seeded correlated pair.
	{Name: "mi.ksg_estimate_us.m32", Unit: "us", Better: "lower", Layer: "mi", From: fromProbe, Moves: "lat_p50_ms", On: onPairL},
	{Name: "mi.ksg_estimate_us.m128", Unit: "us", Better: "lower", Layer: "mi", From: fromProbe, Moves: "lat_p50_ms", On: onPairL},
	{Name: "mi.ksg_estimate_us.m512", Unit: "us", Better: "lower", Layer: "mi", From: fromProbe, Moves: "lat_p50_ms", On: onPairL},
	{Name: "mi.inc_slide_us.m128", Unit: "us", Better: "lower", Layer: "mi", From: fromProbe, Moves: "lat_p50_ms", On: onPairLMN},
	{Name: "mi.inc_slide_us.m512", Unit: "us", Better: "lower", Layer: "mi", From: fromProbe, Moves: "lat_p50_ms", On: onPairLMN},
	{Name: "mi.inc_reload_us.m128", Unit: "us", Better: "lower", Layer: "mi", From: fromProbe, Moves: "lat_p50_ms", On: onPairLMN},
	{Name: "mi.inc_reload_us.m512", Unit: "us", Better: "lower", Layer: "mi", From: fromProbe, Moves: "lat_p50_ms", On: onPairLMN},
	{Name: "mi.inc_refreshes_per_edit.m128", Unit: "ratio", Better: "lower", Layer: "mi", From: fromProbe, Moves: "lat_p50_ms", On: onPairLMN},
	{Name: "mi.inc_refreshes_per_edit.m512", Unit: "ratio", Better: "lower", Layer: "mi", From: fromProbe, Moves: "lat_p50_ms", On: onPairLMN},
	{Name: "knn.build_us.m128", Unit: "us", Better: "lower", Layer: "knn", From: fromProbe, Moves: "lat_p50_ms", On: onPairL},
	{Name: "knn.build_us.m512", Unit: "us", Better: "lower", Layer: "knn", From: fromProbe, Moves: "lat_p50_ms", On: onPairL},
	{Name: "knn.self_query_us.m512", Unit: "us", Better: "lower", Layer: "knn", From: fromProbe, Moves: "lat_p50_ms", On: onPairL},
	{Name: "knn.count_us.m512", Unit: "us", Better: "lower", Layer: "knn", From: fromProbe, Moves: "lat_p50_ms", On: onPairL},

	// checkpoint kernels: a temporary journal under the run's scratch dir.
	{Name: "checkpoint.record_us", Unit: "us", Better: "lower", Layer: "checkpoint", From: fromProbe, Moves: "lat_p50_ms", On: onDaemon},
	{Name: "checkpoint.record_fsync_us", Unit: "us", Better: "lower", Layer: "checkpoint", From: fromProbe, Moves: "lat_p50_ms", On: onDaemon},
	{Name: "checkpoint.lookup_us", Unit: "us", Better: "lower", Layer: "checkpoint", From: fromProbe, Moves: "lat_p50_ms", On: onDaemon},

	// baseline and discovery: per Discover pass.
	{Name: "discovery.screen_ms", Unit: "ms", Better: "lower", Layer: "baseline", From: fromFleet, Moves: "lat_p50_ms", On: onFleet},
	{Name: "discovery.screen_prune_ratio", Unit: "ratio", Better: "higher", Layer: "baseline", From: fromFleet, Moves: "lat_p50_ms", On: onFleet},
	{Name: "discovery.screen_windows", Unit: "count", Better: "lower", Layer: "baseline", From: fromFleet, Moves: "lat_p50_ms", On: onFleet},
	{Name: "discovery.confirm_ms", Unit: "ms", Better: "lower", Layer: "discovery", From: fromFleet, Moves: "lat_p50_ms", On: onFleet},
	{Name: "discovery.merge_ms", Unit: "ms", Better: "lower", Layer: "discovery", From: fromFleet, Moves: "lat_p50_ms", On: onFleet},
	{Name: "discovery.evaluated", Unit: "count", Better: "lower", Layer: "discovery", From: fromFleet, Moves: "lat_p50_ms", On: onFleet},
	{Name: "discovery.scaling_2w", Unit: "ratio", Better: "higher", Layer: "discovery", From: fromFleet, Moves: "throughput_per_s", On: onFleet},

	// daemon, checkpoint and obs on the service path.
	{Name: "daemon.search_journal_ms.p50", Unit: "ms", Better: "lower", Layer: "daemon", From: fromDaemon, Moves: "lat_p50_ms", On: onDaemon},
	{Name: "daemon.journal_hit_ratio", Unit: "ratio", Better: "higher", Layer: "daemon", From: fromDaemon, Moves: "lat_p50_ms", On: onDaemon},
	{Name: "daemon.search_computed_ms.p50", Unit: "ms", Better: "lower", Layer: "daemon", From: fromDaemon, Moves: "lat_p50_ms", On: onDaemon},
	{Name: "daemon.search_computed_ms.p90", Unit: "ms", Better: "lower", Layer: "daemon", From: fromDaemon, Moves: "lat_p90_ms", On: onDaemon},
	{Name: "daemon.queue_wait_ms.mean", Unit: "ms", Better: "lower", Layer: "daemon", From: fromDaemon, Moves: "lat_p90_ms", On: onDaemon},
	{Name: "daemon.server_search_ms.mean", Unit: "ms", Better: "lower", Layer: "daemon", From: fromDaemon, Moves: "lat_p50_ms", On: onDaemon},
	{Name: "daemon.client_overhead_ms", Unit: "ms", Better: "lower", Layer: "daemon", From: fromDaemon, Moves: "lat_p50_ms", On: onDaemon},
	{Name: "daemon.ingest_ms.p50", Unit: "ms", Better: "lower", Layer: "daemon", From: fromDaemon, Moves: "lat_p90_ms", On: onDaemon},
	{Name: "daemon.ingest_ms.p90", Unit: "ms", Better: "lower", Layer: "daemon", From: fromDaemon, Moves: "lat_p90_ms", On: onDaemon},
	{Name: "daemon.scrape_metrics_ms.p50", Unit: "ms", Better: "lower", Layer: "obs", From: fromDaemon, Moves: "lat_p90_ms", On: onDaemon},
	{Name: "daemon.scrape_statusz_ms.p50", Unit: "ms", Better: "lower", Layer: "obs", From: fromDaemon, Moves: "lat_p90_ms", On: onDaemon},
	{Name: "daemon.statusz_growth", Unit: "ratio", Better: "lower", Layer: "obs", From: fromDaemon, Moves: "peak_rss_mb", On: onDaemon},
	{Name: "daemon.heap_growth_mb", Unit: "MiB", Better: "lower", Layer: "daemon", From: fromDaemon, Moves: "peak_rss_mb", On: onDaemon},
	{Name: "daemon.shed_429", Unit: "count", Better: "lower", Layer: "daemon", From: fromDaemon, Moves: "throughput_per_s", On: onDaemon},
	{Name: "checkpoint.journal_bytes", Unit: "B", Better: "lower", Layer: "checkpoint", From: fromDaemon, Moves: "peak_rss_mb", On: onDaemon},
	{Name: "gen.lag_p90_ms", Unit: "ms", Better: "lower", Layer: "daemon", From: fromDaemon, Moves: "lat_p90_ms", On: onDaemon},
}

// workloadSpec is one benchmark workload: its name, why it is in the suite,
// and the function that runs it.
type workloadSpec struct {
	Name string
	Why  string
	run  func(cfg runConfig) (*outcome, error)
}

// workloads lists the suite in its canonical order.
var workloads = []workloadSpec{
	{Name: wPairL, Why: "Plain single-threaded LAHC search: batch KSG (kd-tree build, self-query, marginal counts) does all the work; no incremental MI, no noise pruning.", run: runPairL},
	{Name: wPairLMN, Why: "The default configuration, LMN with 2 restart workers: incremental MI moves and noise pruning do most of the work, windows up to 300 near the batch/incremental crossover.", run: runPairLMN},
	{Name: wFleet, Why: "Discovery over fleets of 100 with 2 workers: a sliding-PCC screen prunes the AR(1) decoys it can, then short LMN searches (windows up to 32) share one estimator cache.", run: runFleet},
	{Name: wDaemon, Why: "Open-loop HTTP traffic on tycosd: JSON decode/encode, admission queue, journal replays and appends, ingest and always-on metrics on the critical path.", run: runDaemon},
}

// workloadByName finds a workload, nil when unknown.
func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
