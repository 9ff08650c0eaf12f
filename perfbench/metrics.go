package main

// The metric table. BENCHMARK.json lists the same names, units and
// directions (a test keeps the two in step); the doc strings here record
// what each metric measures, which layer it belongs to, which end-to-end
// metric it should move and where it should stay flat. Every metric is
// printed on every workload: a layer that does no work on a workload
// reports 0 there.

// metricDef describes one reported metric.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression: at least
	// three times the metric's quartile spread over ten seeds where the
	// host allows it, and at most 0.25, which the time metrics take
	// because the host's speed drifts over minutes (NOTES.md).
	bound float64
	doc   string
}

// endToEnd are measured with tracing off, over the timed phase. An op is
// one request on serve-*, and one campaign cell on campaign.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"median over the run's set-ups of one set-up: input generation, body encoding, server construction, priming the cache and committing the replan bases (campaign: one warm-up campaign); the first set-up starts at process start"},
	{"latency_p50_ms", "ms", "lower", 0.25,
		"median op latency: one Handler().ServeHTTP call on serve-*, one whole campaign (both sweeps) on campaign"},
	{"latency_p95_ms", "ms", "lower", 0.25,
		"95th-percentile op latency, same ops as latency_p50_ms"},
	{"throughput_rps", "1/s", "higher", 0.25,
		"completed ops per wall-clock second of the timed phase, with nproc closed-loop clients on serve-*"},
	{"campaign_s", "s", "lower", 0.25,
		"median wall-clock time of one pass: one campaign (both sweeps) on campaign, one pass of consecutive completions on serve-* (the 160-request set on serve-hit, ten 6-request mixes on serve-miss)"},
	{"cpu_ms_per_op", "ms", "lower", 0.25,
		"process user+sys CPU per completed op; excludes host steal, so it is the steadiest measure of work"},
	{"peak_rss_mb", "MiB", "lower", 0.15,
		"VmHWM of the process, which runs only this workload"},
	{"stages_mean", "stages", "lower", 0.08,
		"mean pipeline stage count S of the returned schedules (latency bound (2S-1)Δ); a speed-up must not buy deeper pipelines"},
	{"feasible_share", "ratio", "higher", 0.06,
		"share of solve attempts answered with a schedule rather than a typed infeasibility; guards stages_mean against survivor bias"},
}

// perLayer come from the traced replay (--trace 1). On serve-* every time
// is a mean per replayed request, so decode + build + load + hash + handle
// + solve + replan + marshal + render + glue = request_ms; on campaign the
// three experiments shares add up to 1.
var perLayer = []metricDef{
	{name: "service.request_ms", unit: "ms", better: "lower",
		doc: "service: one Handler().ServeHTTP call. Moves latency_p50_ms on serve-*; flat on campaign"},
	{name: "service.decode_ms", unit: "ms", better: "lower",
		doc: "service: json.Decoder.Decode of the body into SolveRequest or ReplanRequest. Moves latency_p50_ms and cpu_ms_per_op on serve-hit; flat on campaign"},
	{name: "service.build_ms", unit: "ms", better: "lower",
		doc: "service: Graph.Build, Platform.Build, Options.Solver, PlatformDelta.Build and the delta's pre-admission Apply. Moves latency_p50_ms on serve-hit; flat on campaign"},
	{name: "service.hash_ms", unit: "ms", better: "lower",
		doc: "service: ProblemHash or ReplanHash (which marshals the committed schedule). Moves latency_p50_ms on serve-hit; flat on campaign"},
	{name: "service.handle_ms", unit: "ms", better: "lower",
		doc: "service: self time of Handle.Solve or Handle.Replan (cache, coalesce, admit, summarize), i.e. the call minus hash, solve, replan and marshal timed on the same input. Moves latency_p50_ms and throughput_rps on serve-miss; flat on campaign"},
	{name: "service.render_ms", unit: "ms", better: "lower",
		doc: "service: encoding the reply DTO around the pre-rendered schedule, as writeJSON does. Moves cpu_ms_per_op and latency_p50_ms on serve-hit; flat on campaign"},
	{name: "service.glue_ms", unit: "ms", better: "lower",
		doc: "service: request_ms minus every part above and below (HTTP plumbing, size limit, metrics). Moves latency_p50_ms on serve-hit; flat on campaign"},
	{name: "service.request_kb", unit: "KiB", better: "lower",
		doc: "service: mean request body size over the timed phase. Scales decode; changes only with the wire format"},
	{name: "service.response_kb", unit: "KiB", better: "lower",
		doc: "service: mean reply body size over the timed phase. Scales render; changes only with the wire format"},
	{name: "service.cache_hit_ratio", unit: "ratio", better: "higher",
		doc: "service: hits / lookups over the timed phase, from Handle.Metrics(). 1 on serve-hit, 0 on serve-miss; a drop on serve-hit raises latency_p50_ms"},
	{name: "service.solves_per_req", unit: "count", better: "lower",
		doc: "service: Metrics().SolveCalls per request over the timed phase. Moves cpu_ms_per_op on serve-miss; 0 on serve-hit"},
	{name: "schedule.marshal_ms", unit: "ms", better: "lower",
		doc: "schedule: json.Marshal(*Schedule), paid once per miss. Moves cpu_ms_per_op and latency_p50_ms on serve-miss; 0 on serve-hit"},
	{name: "schedule.load_ms", unit: "ms", better: "lower",
		doc: "schedule: schedule.LoadJSON of the committed schedule in a replan body. Moves latency_p95_ms on serve-hit, where replan hits are the slowest fifth; flat on campaign"},
	{name: "core.solve_ms", unit: "ms", better: "lower",
		doc: "core: Solver.Solve; per replayed request on serve-*, per solve (sum of its ltf/rltf spans) on campaign. Moves latency_p50_ms, latency_p95_ms and throughput_rps on serve-miss and campaign_s on campaign; 0 on serve-hit"},
	{name: "core.batch_s", unit: "s", better: "lower",
		doc: "core: one core.Batch.Solve over one sweep's requests, summed over both sweeps. Moves campaign_s; 0 on serve-*"},
	{name: "mapper.trials_per_solve", unit: "count", better: "lower",
		doc: "ltf/rltf/mapper: PhaseCounters.Trials from the solver's own ltf/rltf spans, per solve; deterministic. Moves core.solve_ms; 0 on serve-hit"},
	{name: "mapper.placements_per_solve", unit: "count", better: "lower",
		doc: "ltf/rltf/mapper: PhaseCounters.Placements per solve; deterministic. Moves core.solve_ms; 0 on serve-hit"},
	{name: "mapper.rollbacks_per_solve", unit: "count", better: "lower",
		doc: "ltf/rltf/mapper: PhaseCounters.Rollbacks per solve; deterministic. Moves core.solve_ms; 0 on serve-hit"},
	{name: "mapper.fallbacks_per_solve", unit: "count", better: "lower",
		doc: "ltf/rltf/mapper: PhaseCounters.Fallbacks per solve; deterministic. Moves core.solve_ms; 0 on serve-hit"},
	{name: "mapper.placement_yield", unit: "ratio", better: "higher",
		doc: "ltf/rltf/mapper: placements / trials. Moves core.solve_ms; 0 on serve-hit"},
	{name: "mapper.us_per_trial", unit: "us", better: "lower",
		doc: "oneport/timeline under the mapper: solve time / trials. A oneport or timeline speed-up shows here while the counts stay unchanged; 0 on serve-hit"},
	{name: "repair.replan_ms", unit: "ms", better: "lower",
		doc: "repair: Solver.Replan, per replayed request. Moves cpu_ms_per_op and throughput_rps on serve-miss; 0 on serve-hit and campaign"},
	{name: "repair.replayed_share", unit: "ratio", better: "higher",
		doc: "repair: RepairStats.Replayed as a share of the replanned tasks. Moves repair.replan_ms; 0 on serve-hit and campaign"},
	{name: "repair.preserved_share", unit: "ratio", better: "higher",
		doc: "repair: RepairStats.Preserved as a share of the replanned tasks. Moves repair.replan_ms; 0 on serve-hit and campaign"},
	{name: "repair.repaired_share", unit: "ratio", better: "lower",
		doc: "repair: RepairStats.Repaired as a share of the replanned tasks. Moves repair.replan_ms; 0 on serve-hit and campaign"},
	{name: "repair.cold_share", unit: "ratio", better: "lower",
		doc: "repair: share of replans that fell back to a cold solve. Moves cpu_ms_per_op on serve-miss; 0 on serve-hit and campaign"},
	{name: "sim.engine_ms", unit: "ms", better: "lower",
		doc: "sim: sim.NewEngine per schedule. Moves campaign_s; 0 on serve-*"},
	{name: "sim.dataflow_ms", unit: "ms", better: "lower",
		doc: "sim: Engine.Run per dataflow scenario. Moves campaign_s and cpu_ms_per_op on campaign; 0 on serve-*"},
	{name: "sim.sync_ms", unit: "ms", better: "lower",
		doc: "sim: Engine.Run per synchronous scenario. Moves campaign_s and cpu_ms_per_op on campaign; 0 on serve-*"},
	{name: "sim.wakes_per_run", unit: "count", better: "lower",
		doc: "sim: Engine.Wakes() per synchronous run; deterministic. Moves sim.sync_ms; 0 on serve-*"},
	{name: "randgraph.cell_ms", unit: "ms", better: "lower",
		doc: "randgraph/platform: RandomHeterogeneous plus Stream for one input. Moves setup_s on serve-*; negligible on campaign, where only the first repetition pays it"},
	{name: "experiments.sim_share", unit: "ratio", better: "lower",
		doc: "experiments: share of the traced campaign's wall time spent in the simulation fan-out. Moves campaign_s; 0 on serve-*"},
	{name: "experiments.solve_share", unit: "ratio", better: "lower",
		doc: "experiments: share of the traced campaign's wall time spent in core.Batch.Solve. Moves campaign_s; 0 on serve-*"},
	{name: "experiments.other_share", unit: "ratio", better: "lower",
		doc: "experiments: the traced campaign's unattributed remainder (cell generation, aggregation, fan-out); the three shares add up to 1. 0 on serve-*"},
	{name: "experiments.cpu_use", unit: "ratio", better: "higher",
		doc: "experiments: campaign CPU-seconds / (wall-clock seconds x GOMAXPROCS) over the timed phase, i.e. how well Batch and the scenario fan-out fill the cores. Moves campaign_s; 0 on serve-*"},
	{name: "runtime.alloc_kb_per_op", unit: "KiB", better: "lower",
		doc: "Go runtime: heap bytes allocated per op over the untraced timed phase (runtime/metrics). Moves cpu_ms_per_op and latency_p95_ms everywhere, most on serve-hit"},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower",
		doc: "Go runtime: heap objects allocated per op over the untraced timed phase. Moves cpu_ms_per_op and latency_p95_ms everywhere"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower",
		doc: "Go runtime: GC CPU / non-idle CPU over the untraced timed phase (runtime/metrics estimates). Moves cpu_ms_per_op and latency_p95_ms everywhere"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower",
		doc: "benchmark: traced replay CPU per op / untraced CPU per op - 1. The replay times inner calls separately, so it repeats their work; it moves nothing and reports the cost of tracing"},
}
