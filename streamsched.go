// Package streamsched schedules streaming workflow applications on
// heterogeneous platforms under simultaneous latency, throughput and
// reliability requirements. It implements the LTF and Reverse-LTF (R-LTF)
// algorithms of Benoit, Hakem and Robert, "Optimizing the Latency of
// Streaming Applications under Throughput and Reliability Constraints"
// (ICPP 2009 / LIP RR-2009-13), together with the substrate the paper
// builds on: the bi-directional one-port communication model with full
// computation/communication overlap, active replication tolerating ε
// arbitrary fail-silent/fail-stop processor failures, pipelined execution
// with latency L = (2S−1)/T, a discrete-event execution simulator with
// crash injection, workload generators and the complete experiment harness
// that regenerates the paper's figures.
//
// Quick start:
//
//	g := streamsched.NewGraph("pipeline")
//	a := g.AddTask("decode", 4)
//	b := g.AddTask("filter", 6)
//	g.MustAddEdge(a, b, 2)
//	p := streamsched.Homogeneous(4, 1.0, 10.0)
//	solver, err := streamsched.NewSolver(
//		streamsched.WithAlgorithm(streamsched.RLTF),
//		streamsched.WithEps(1),
//		streamsched.WithPeriod(12),
//	)
//	s, err := solver.Solve(ctx, g, p)
//	if errors.Is(err, streamsched.ErrInfeasible) { /* no schedule exists */ }
//	// s.Stages(), s.LatencyBound(), s.Gantt(80), streamsched.Simulate(ctx, s, ...)
//
// Infeasibility is a first-class, typed outcome: every "no schedule
// exists" error matches errors.Is(err, ErrInfeasible), and errors.As
// recovers a *InfeasibleError carrying the classified Reason (period
// exceeded, port overload, no processor, latency exceeded) and the
// offending task/processor/period. Batches of instances fan out across a
// bounded worker pool with SolveMany, and the Portfolio algorithm races
// LTF against R-LTF per instance, keeping the lower-latency feasible
// schedule.
//
// The package is a façade: the implementation lives under internal/ (one
// package per subsystem, see DESIGN.md), and every type exposed here is an
// alias of the internal one, so the façade adds no conversion friction.
package streamsched

import (
	"context"

	"streamsched/internal/baselines"
	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/repair"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
	"streamsched/internal/service"
	"streamsched/internal/sim"
	"streamsched/internal/trace"
	"streamsched/internal/tricrit"
)

// Application model.
type (
	// Graph is a weighted DAG of tasks (work E(t)) and communications
	// (volumes).
	Graph = dag.Graph
	// TaskID identifies a task within a Graph.
	TaskID = dag.TaskID
	// Task is one workflow node.
	Task = dag.Task
	// Edge is one precedence/communication arc.
	Edge = dag.Edge
)

// Platform model.
type (
	// Platform is a set of heterogeneous, fully interconnected processors.
	Platform = platform.Platform
	// ProcID identifies a processor.
	ProcID = platform.ProcID
)

// Scheduling.
type (
	// Solver is the configured, context-aware entry point to the
	// algorithms; build one with NewSolver.
	Solver = core.Solver
	// SolverOption configures a Solver (see the With... constructors).
	SolverOption = core.Option
	// Algorithm selects LTF, RLTF, FaultFree or Portfolio.
	Algorithm = core.Algorithm
	// Schedule is a replicated pipelined mapping with derived metrics.
	Schedule = schedule.Schedule
	// Replica is one placed task copy.
	Replica = schedule.Replica
	// Ref identifies a replica (task × copy).
	Ref = schedule.Ref
)

// Algorithms.
const (
	// LTF is Algorithm 4.1 of the paper (forward, minimum finish time).
	LTF = core.LTF
	// RLTF is the Reverse LTF algorithm (§4.2), the paper's recommendation.
	RLTF = core.RLTF
	// FaultFree is the ε=0 reference schedule.
	FaultFree = core.FaultFree
	// Portfolio races LTF and R-LTF per instance and keeps the
	// lower-latency feasible schedule.
	Portfolio = core.Portfolio
)

// Typed infeasibility. Every "no schedule exists" outcome — from Solve,
// SolveMany, MinPeriod and the tri-criteria searches — matches
// errors.Is(err, ErrInfeasible); errors.As against *InfeasibleError
// recovers the classification.
var ErrInfeasible = core.ErrInfeasible

type (
	// InfeasibleError carries the classified Reason plus the offending
	// Task/Copy/Proc and the probed Period.
	InfeasibleError = core.InfeasibleError
	// Reason classifies an infeasibility.
	Reason = core.Reason
)

// Infeasibility reasons.
const (
	// ReasonPeriodExceeded: a compute load cannot fit within the period Δ.
	ReasonPeriodExceeded = core.ReasonPeriodExceeded
	// ReasonPortOverload: a one-port send/receive budget is exhausted.
	ReasonPortOverload = core.ReasonPortOverload
	// ReasonNoProcessor: no admissible processor exists (e.g. ε+1 > m).
	ReasonNoProcessor = core.ReasonNoProcessor
	// ReasonLatencyExceeded: feasible, but above the WithLatencyCap bound.
	ReasonLatencyExceeded = core.ReasonLatencyExceeded
	// ReasonSearchExhausted: a tri-criteria search found no feasible point.
	ReasonSearchExhausted = core.ReasonSearchExhausted
)

// NewSolver builds a Solver from functional options. WithPeriod is
// mandatory; the defaults are R-LTF, ε = 0, chunk B = m, one-to-one
// mapping on, no latency cap.
func NewSolver(opts ...SolverOption) (*Solver, error) { return core.NewSolver(opts...) }

// WithAlgorithm selects LTF, RLTF, FaultFree or Portfolio (default RLTF).
func WithAlgorithm(a Algorithm) SolverOption { return core.WithAlgorithm(a) }

// WithEps sets ε, the number of tolerated processor failures (default 0).
func WithEps(eps int) SolverOption { return core.WithEps(eps) }

// WithPeriod sets the required period Δ = 1/T (mandatory, > 0).
func WithPeriod(period float64) SolverOption { return core.WithPeriod(period) }

// WithChunkSize overrides the iso-level chunk bound B (default 0 → m).
func WithChunkSize(b int) SolverOption { return core.WithChunkSize(b) }

// WithLookahead sets the speculative placement window k (default 1, no
// speculation). With k > 1 the LTF/R-LTF placement loop pops windows of k
// ready tasks, builds every candidate strategy for the window under a
// journal transaction, scores each complete placement by (max stage,
// max finish), and keeps the best — trading construction time for schedule
// quality. k = 1 reproduces the plain chunked loop exactly; k < 1 is a
// configuration error.
func WithLookahead(k int) SolverOption { return core.WithLookahead(k) }

// WithOneToOne toggles the one-to-one communication-mapping procedure
// (default on).
func WithOneToOne(on bool) SolverOption { return core.WithOneToOne(on) }

// WithLatencyCap rejects schedules whose latency bound (2S−1)·Δ exceeds
// cap (≤ 0 disables, the default).
func WithLatencyCap(cap float64) SolverOption { return core.WithLatencyCap(cap) }

// Online rescheduling. Solver.Replan(ctx, old, delta, ...ReplanOption)
// repairs a committed schedule after a platform delta — processors lost or
// added, speeds or link bandwidths changed — by replaying the surviving
// placement (a replay that no longer fits unwinds through a journaled
// mapper transaction) and re-placing only the evicted tasks with LTF's
// forward placement, falling back to a cold re-solve when repair fails
// (DESIGN.md §10).
type (
	// PlatformDelta is one observed platform change set (lost/added
	// processors, speed and bandwidth changes), applied by Replan.
	PlatformDelta = core.Delta
	// ProcSpeedChange sets one processor's speed within a delta.
	ProcSpeedChange = repair.SpeedChange
	// LinkBandwidthChange sets one directed link's bandwidth within a delta.
	LinkBandwidthChange = repair.BandwidthChange
	// AddedProc describes one processor joining the platform within a delta.
	AddedProc = repair.AddedProc
	// ReplanResult is a successful Replan: the post-delta schedule plus the
	// repair statistics.
	ReplanResult = core.ReplanResult
	// RepairStats quantifies how much of the old schedule survived.
	RepairStats = core.RepairStats
	// ReplanOption configures one Replan call.
	ReplanOption = core.ReplanOption
)

// ErrRepairBudget reports an exceeded repair budget when the cold-solve
// fallback is disabled.
var ErrRepairBudget = core.ErrRepairBudget

// WithRepairBudget bounds the tasks repair may re-place by search before
// falling back to a cold solve (0, the default, is unlimited).
func WithRepairBudget(n int) ReplanOption { return core.WithRepairBudget(n) }

// WithColdFallback toggles Replan's fall-back-to-cold-solve policy
// (default on).
func WithColdFallback(on bool) ReplanOption { return core.WithColdFallback(on) }

// Batch solving.
type (
	// SolveRequest is one instance of a batch: graph, platform and
	// per-request option overrides.
	SolveRequest = core.Request
	// SolveResult is one batch outcome: a schedule or a typed error.
	SolveResult = core.Result
	// Batch fans requests across a bounded worker pool with default
	// options.
	Batch = core.Batch
)

// SolveMany solves the requests concurrently on a GOMAXPROCS-bounded
// worker pool, returning results in request order with per-request error
// capture. Identical inputs produce identical results for any worker
// count.
func SolveMany(ctx context.Context, reqs []SolveRequest, opts ...SolverOption) []SolveResult {
	return core.SolveMany(ctx, reqs, opts...)
}

// Simulation.
type (
	// SimConfig controls a simulated execution.
	SimConfig = sim.Config
	// SimResult reports measured latency/throughput/delivery.
	SimResult = sim.Result
	// FailureSpec injects processor crashes.
	FailureSpec = sim.FailureSpec
)

// Baselines (Figure 1 scenarios and the related-work period minimizer).
type (
	// TaskParallelResult is the classical list-scheduling scenario.
	TaskParallelResult = baselines.TaskParallelResult
	// DataParallelResult is the whole-graph replication scenario.
	DataParallelResult = baselines.DataParallelResult
)

// NewGraph returns an empty workflow graph.
func NewGraph(name string) *Graph { return dag.New(name) }

// NewPlatform builds a platform from explicit speeds and a bandwidth matrix.
func NewPlatform(speeds []float64, bandwidth [][]float64) *Platform {
	return platform.New(speeds, bandwidth)
}

// Homogeneous builds m identical processors.
func Homogeneous(m int, speed, bandwidth float64) *Platform {
	return platform.Homogeneous(m, speed, bandwidth)
}

// RandomPlatform draws a heterogeneous platform like the paper's
// experiments: speeds uniform in [speedLo, speedHi], per-link unit message
// delays uniform in [delayLo, delayHi] (bandwidth = 100/delay).
func RandomPlatform(seed uint64, m int, speedLo, speedHi, delayLo, delayHi float64) *Platform {
	return platform.RandomHeterogeneous(rng.New(seed), m, speedLo, speedHi, delayLo, delayHi, 100)
}

// Granularity returns g(G,P), the computation-to-communication ratio of §2.
func Granularity(g *Graph, p *Platform) float64 { return platform.Granularity(g, p) }

// Simulate executes a schedule on the discrete-event engine; a cancelled
// ctx aborts the event loop.
func Simulate(ctx context.Context, s *Schedule, cfg SimConfig) (*SimResult, error) {
	return sim.Run(ctx, s, cfg)
}

// DefaultSimConfig sizes a simulation for the schedule.
func DefaultSimConfig(s *Schedule) SimConfig { return sim.DefaultConfig(s) }

// TaskParallel evaluates the Figure 1(b) scenario (makespan scheduling,
// one item at a time).
func TaskParallel(ctx context.Context, g *Graph, p *Platform, eps int) (*TaskParallelResult, error) {
	return baselines.TaskParallel(ctx, g, p, eps)
}

// DataParallel evaluates the Figure 1(c) scenario (whole-graph replication,
// round-robin items).
func DataParallel(g *Graph, p *Platform, eps int) (*DataParallelResult, error) {
	return baselines.DataParallel(g, p, eps)
}

// Related-work list schedulers and clustering (§3 comparators; ε = 0).

// ETF schedules with the Earliest-Task-First policy (Hwang et al.).
func ETF(g *Graph, p *Platform, period float64) (*Schedule, error) {
	return baselines.ETF(g, p, period)
}

// HEFT schedules in decreasing upward-rank order, minimum finish time
// (Topcuoglu et al.).
func HEFT(g *Graph, p *Platform, period float64) (*Schedule, error) {
	return baselines.HEFT(g, p, period)
}

// Clustered schedules with the WMSH-style clustering heuristic
// (Vydyanathan et al.).
func Clustered(g *Graph, p *Platform, period float64) (*Schedule, error) {
	return baselines.Clustered(g, p, period)
}

// UnconstrainedPeriod returns a period budget no schedule can exceed — the
// related-work heuristics' native "no throughput requirement" setting.
func UnconstrainedPeriod(g *Graph, p *Platform) float64 {
	return baselines.UnconstrainedPeriod(g, p)
}

// RandomSP generates a random two-terminal series-parallel workflow of
// roughly n tasks (the §4.2 communication-bound graph family).
func RandomSP(seed uint64, n int, workLo, workHi, volLo, volHi float64) *Graph {
	return randgraph.SeriesParallel(rng.New(seed), n, workLo, workHi, volLo, volHi)
}

// MinPeriod binary-searches the smallest feasible period for the algorithm
// (the Hoang–Rabaey related-work utility). Only infeasibility narrows the
// bracket; any other error aborts the search.
func MinPeriod(ctx context.Context, g *Graph, p *Platform, eps int, algo Algorithm, tol float64) (float64, *Schedule, error) {
	return baselines.MinPeriod(ctx, g, p, eps, scheduler(algo), tol)
}

func scheduler(algo Algorithm) baselines.Scheduler {
	return func(ctx context.Context, g *Graph, p *Platform, eps int, period float64) (*Schedule, error) {
		s, err := core.NewSolver(WithAlgorithm(algo), WithEps(eps), WithPeriod(period))
		if err != nil {
			return nil, err
		}
		return s.Solve(ctx, g, p)
	}
}

// Symmetric tri-criteria problems (the paper's §6 extensions). The
// searches probe the solver as concurrent batches and abort early — with
// ctx.Err() — when the context is cancelled.

// MaxThroughput finds the largest throughput under a latency cap
// (maxLatency ≤ 0 disables the cap) at the given ε.
func MaxThroughput(ctx context.Context, g *Graph, p *Platform, eps int, maxLatency float64, algo Algorithm) (period float64, s *Schedule, err error) {
	return tricrit.MaxThroughput(ctx, g, p, eps, maxLatency, algo)
}

// MaxFailures finds the largest tolerated ε at the given period and
// latency cap (maxLatency ≤ 0 disables the cap).
func MaxFailures(ctx context.Context, g *Graph, p *Platform, period, maxLatency float64, algo Algorithm) (eps int, s *Schedule, err error) {
	return tricrit.MaxFailures(ctx, g, p, period, maxLatency, algo)
}

// MinProcessors finds the smallest platform prefix on which the instance is
// schedulable (the Figure 2 question).
func MinProcessors(ctx context.Context, g *Graph, p *Platform, eps int, period float64, algo Algorithm) (m int, s *Schedule, err error) {
	return tricrit.MinProcessors(ctx, g, p, eps, period, algo)
}

// Scheduling service. cmd/streamschedd serves the whole pipeline over
// HTTP/JSON — POST /v1/solve, /v1/batch, /v1/replan, /v1/simulate plus
// /healthz and /metrics — with canonical problem hashing, a coalescing LRU
// result cache and bounded-queue backpressure (DESIGN.md §8). The same
// pipeline is available in-process, without HTTP, through ServiceHandle.
// The wire types are re-exported here so clients build requests and decode
// responses with the same definitions the daemon uses; examples/service is
// a complete client.
type (
	// Service is the embeddable HTTP scheduling service; mount
	// Service.Handler() on any http.Server. Build with NewService. It
	// embeds a ServiceHandle, so hybrid embedders can serve HTTP and call
	// the in-process API against the same cache and admission bounds.
	Service = service.Server
	// ServiceConfig bounds the service: workers, queue, cache, deadlines.
	ServiceConfig = service.Config
	// ServiceMetrics is the GET /metrics document.
	ServiceMetrics = service.MetricsSnapshot
	// ServiceRequestLog is one traced HTTP request, delivered to
	// ServiceConfig.RequestLog after the response is written (DESIGN.md
	// §12).
	ServiceRequestLog = service.RequestLogEntry

	// ServiceHandle is the in-process service API: Solve, SolveBatch,
	// Replan and Simulate through the same caching, coalescing and
	// backpressure pipeline as the HTTP surface, on in-memory types. Build
	// with NewServiceHandle.
	ServiceHandle = service.Handle
	// ServiceSpec is one in-process solve request.
	ServiceSpec = service.Spec
	// ServiceReplanSpec is one in-process replan request.
	ServiceReplanSpec = service.ReplanSpec
	// ServiceOutcome is the in-process result of a Solve or Replan.
	ServiceOutcome = service.Outcome
	// ServiceBatchResult pairs one batch element's outcome with its error.
	ServiceBatchResult = service.BatchResult
	// ServiceDrainReport summarizes a graceful drain: flights waited for,
	// timeouts, and the final cache spill (DESIGN.md §11).
	ServiceDrainReport = service.DrainReport

	// WireGraph/WirePlatform/WireOptions describe one problem on the wire.
	WireGraph    = service.Graph
	WireTask     = service.Task
	WireEdge     = service.Edge
	WirePlatform = service.Platform
	WireOptions  = service.Options
	// WireSolveRequest/Response are the /v1/solve payloads. The response
	// is the reply envelope of every /v1 route: it carries a schedule, a
	// typed infeasibility, or an error.
	WireSolveRequest  = service.SolveRequest
	WireSolveResponse = service.SolveResponse
	// WireBatch types fan many problems through one request.
	WireBatchRequest  = service.BatchRequest
	WireBatchProblem  = service.BatchProblem
	WireBatchResponse = service.BatchResponse
	// WireReplan types repair a committed schedule after a platform delta.
	// WireReplanResponse is WireSolveResponse with its Replan statistics
	// set.
	WireReplanRequest  = service.ReplanRequest
	WireReplanResponse = service.ReplanResponse
	WirePlatformDelta  = service.PlatformDelta
	WireProcSpeed      = service.ProcSpeed
	WireLinkBandwidth  = service.LinkBandwidth
	WireNewProc        = service.NewProc
	WireReplanStats    = service.ReplanStats
	// WireSimulate types solve and sweep simulation scenarios.
	// WireSimulateResponse is WireSolveResponse with its Scenarios set and
	// no Schedule.
	WireSimulateRequest  = service.SimulateRequest
	WireSimulateResponse = service.SimulateResponse
	WireScenario         = service.Scenario
	WireScenarioResult   = service.ScenarioResult
	// WireInfeasible is the classified "no schedule exists" payload.
	WireInfeasible = service.Infeasible
)

// ErrServiceQueueFull is the service's admission rejection: the handle
// already has Workers+QueueLimit work units pending (HTTP 429).
var ErrServiceQueueFull = service.ErrQueueFull

// ErrServiceDraining is returned for work submitted after Drain began:
// the handle is spilling its cache and shutting down (HTTP 503 +
// Retry-After; see DESIGN.md §11).
var ErrServiceDraining = service.ErrDraining

// ErrServiceInternalPanic wraps a panic recovered from a solve or replan
// flight; coalesced followers retry past it and the process survives
// (HTTP 500 with the stable "internal-panic" token).
var ErrServiceInternalPanic = service.ErrInternalPanic

// NewService builds the HTTP scheduling service (zero config: GOMAXPROCS
// workers, 4× queue, 1024-entry cache, 30s deadline).
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// NewServiceHandle builds the in-process scheduling service — the same
// pipeline NewService serves over HTTP, minus the HTTP.
func NewServiceHandle(cfg ServiceConfig) *ServiceHandle { return service.NewHandle(cfg) }

// NewWireGraph converts a graph to its wire form.
func NewWireGraph(g *Graph) WireGraph { return service.GraphDTO(g) }

// NewWirePlatform converts a platform to its wire form.
func NewWirePlatform(p *Platform) WirePlatform { return service.PlatformDTO(p) }

// CanonicalProblemHash returns the service's canonical problem hash for
// (g, p, solver) — the key under which results are cached and coalesced.
func CanonicalProblemHash(g *Graph, p *Platform, s *Solver) string {
	return service.ProblemHash(g, p, s)
}

// Energy accounting (the paper's §6 energy extension).
type (
	// EnergyModel sets the dynamic/static/communication coefficients.
	EnergyModel = schedule.EnergyModel
)

// DefaultEnergyModel returns balanced coefficients for unit-scale work.
func DefaultEnergyModel() EnergyModel { return schedule.DefaultEnergyModel() }

// LoadScheduleJSON reconstructs a schedule serialized with
// Schedule.MarshalJSON, re-bound to the graph and platform.
func LoadScheduleJSON(data []byte, g *Graph, p *Platform) (*Schedule, error) {
	return schedule.LoadJSON(data, g, p)
}

// Tracing (chrome://tracing / Perfetto export).

// TraceSpan is one traced activity (compute or transfer).
type TraceSpan = trace.Span

// ScheduleTrace converts one static iteration of a schedule into trace
// spans.
func ScheduleTrace(s *Schedule) []TraceSpan { return trace.FromSchedule(s) }

// ChromeTraceJSON renders spans — from ScheduleTrace or a simulation run
// with SimConfig.TraceItems — in the Chrome trace-event format.
func ChromeTraceJSON(spans []TraceSpan) ([]byte, error) { return trace.ChromeJSON(spans) }

// Workload generators.

// Chain returns a linear pipeline of n tasks.
func Chain(n int, work, volume float64) *Graph { return randgraph.Chain(n, work, volume) }

// ForkJoin returns a source → width×depth branches → sink workflow.
func ForkJoin(width, depth int, work, volume float64) *Graph {
	return randgraph.ForkJoin(width, depth, work, volume)
}

// InTree returns a complete binary aggregation tree.
func InTree(depth int, work, volume float64) *Graph { return randgraph.InTree(depth, work, volume) }

// OutTree returns a complete binary scatter tree.
func OutTree(depth int, work, volume float64) *Graph { return randgraph.OutTree(depth, work, volume) }

// Butterfly returns the FFT dataflow graph on 2^k points.
func Butterfly(k int, work, volume float64) *Graph { return randgraph.Butterfly(k, work, volume) }

// GaussianElimination returns the Gaussian-elimination task graph.
func GaussianElimination(n int, work, volume float64) *Graph {
	return randgraph.GaussianElimination(n, work, volume)
}

// Stencil returns a 1-D stencil sweep graph.
func Stencil(width, steps int, work, volume float64) *Graph {
	return randgraph.Stencil(width, steps, work, volume)
}

// RandomStream generates one paper-style random workflow calibrated to the
// given granularity against p.
func RandomStream(seed uint64, granularity float64, p *Platform) *Graph {
	cfg := randgraph.DefaultStreamConfig()
	cfg.Granularity = granularity
	return randgraph.Stream(rng.New(seed), cfg, p)
}

// Fig1Graph and Fig2Graph return the paper's worked examples.
func Fig1Graph() *Graph { return randgraph.Fig1Graph() }

// Fig2Graph returns the reconstructed §4.3 example workflow.
func Fig2Graph() *Graph { return randgraph.Fig2Graph() }
