package service

// The in-process service API. Handle owns the full serving pipeline —
// canonical hashing, the LRU result cache, single-flight coalescing,
// admission (bounded queue + worker slots) and the metrics — with no HTTP
// anywhere in sight: embedders call Solve/SolveBatch/Replan/Simulate
// directly and get the same caching, coalescing and backpressure behaviour
// as a remote client of streamschedd. Server (server.go) is a thin HTTP
// adapter over a Handle: it decodes wire DTOs, delegates here, and renders
// responses.
//
// Every request runs one path. A job is a cache key plus what a led
// flight computes — a solve of a Spec, or a replan of a ReplanSpec — and
// each job goes through:
//
//	open:  refuse while draining, validate, hash (the "hash" span)
//	claim: cache hit → done; else follow the key's flight, or lead a new one
//	lead:  detached, under MaxTimeout and behind recoverFault: re-check
//	       the cache → admit → compute → fold infeasibility → render →
//	       cache.Put → Fulfill
//	await: wait for the flight under the caller's deadline; a follower
//	       whose foreign flight panicked re-enters at claim (bounded)
//
// Solve and Replan are one job each. SolveBatch claims every element in
// request order, then runs only its led flights on one Workers-wide
// core.Batch pool. Simulate is a solve job followed by the scenario sweep
// as its own admitted work unit.
//
// Detaching the computation from the leader's caller context is what
// makes coalescing sound: a leader that gives up, or whose deadline is
// shorter than a follower's, must not poison the followers with its
// context error. Every caller honors its own deadline while waiting; the
// work itself always runs to completion (within MaxTimeout) and lands in
// the cache. Solve and replan jobs share one cache and flight map (the key
// spaces are disjoint by construction: distinct leading magics).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/faultinject"
	"streamsched/internal/infeas"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
	"streamsched/internal/sim"
)

// ErrQueueFull is the admission rejection: the handle already has
// Workers+QueueLimit work units pending. The HTTP adapter maps it to 429.
var ErrQueueFull = errors.New("service: work queue full")

// Handle is the in-process scheduling service. Build with NewHandle (or
// New for the HTTP-serving Server). Methods are safe for concurrent use.
type Handle struct {
	cfg     Config
	slots   chan struct{}
	cache   *lruCache
	flights *flightGroup
	m       *metrics
	// traces is the /debug/traces ring; nil unless Config.Tracing. Its
	// non-nilness is the handle-level tracing switch — the HTTP adapter
	// only opens traces when it is set, and NewHandle arms the obs layer
	// process-wide exactly once per traced handle.
	traces *obs.Ring

	// Lifecycle (lifecycle.go). life holds lifeStarting/lifeReady/
	// lifeDraining; drainMu synchronizes flight registration against the
	// drain transition, and flightWG is the set of registered flights a
	// drain waits out.
	life     atomic.Int32
	drainMu  sync.RWMutex
	flightWG sync.WaitGroup

	// Snapshot machinery (persist.go, lifecycle.go). snapMu serializes
	// spills; snapStop/snapDone bracket the background ticker goroutine.
	snapMu    sync.Mutex
	loopOnce  sync.Once
	snapStop  chan struct{}
	snapDone  chan struct{}
	drainOnce sync.Once
	drainRep  DrainReport

	// solve and replan perform one underlying computation; tests swap them
	// to gate or count solver entry deterministically.
	solve  func(ctx context.Context, sv *core.Solver, g *dag.Graph, p *platform.Platform) (*schedule.Schedule, error)
	replan func(ctx context.Context, sv *core.Solver, old *schedule.Schedule, d core.Delta, opts ...core.ReplanOption) (*core.ReplanResult, error)
}

// NewHandle builds an in-process service handle from cfg (zero value:
// sensible defaults).
func NewHandle(cfg Config) *Handle {
	cfg = cfg.withDefaults()
	h := &Handle{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.Workers),
		cache:   newLRUCache(cfg.CacheEntries),
		flights: newFlightGroup(),
		m:       newMetrics(),
	}
	if cfg.Tracing {
		h.traces = obs.NewRing(cfg.TraceRingSize)
		// Arm the process-wide tracing gate for the handle's lifetime.
		// Handles have no Close; the arming is monotone, which is safe —
		// untraced handles never open a trace, so their requests still pay
		// only the FromContext atomic load.
		obs.Enable()
	}
	if cfg.SnapshotPath == "" {
		// No warm start to wait for: born ready. With a snapshot path the
		// handle starts in lifeStarting and WarmStart flips it.
		h.life.Store(lifeReady)
	}
	h.solve = func(ctx context.Context, sv *core.Solver, g *dag.Graph, p *platform.Platform) (*schedule.Schedule, error) {
		return sv.Solve(ctx, g, p)
	}
	h.replan = func(ctx context.Context, sv *core.Solver, old *schedule.Schedule, d core.Delta, opts ...core.ReplanOption) (*core.ReplanResult, error) {
		return sv.Replan(ctx, old, d, opts...)
	}
	return h
}

// Metrics returns a point-in-time snapshot of the service counters.
func (h *Handle) Metrics() MetricsSnapshot { return h.snapshot() }

// ---- public request/result types ---------------------------------------

// Spec is one in-process solve request: a validated in-memory problem.
// (Wire-facing callers decode their DTOs first; see Graph.Build,
// Platform.Build and Options.Solver.)
type Spec struct {
	Graph    *dag.Graph
	Platform *platform.Platform
	Solver   *core.Solver
}

func (sp Spec) validate() error {
	if sp.Graph == nil || sp.Platform == nil || sp.Solver == nil {
		return errors.New("service: spec requires graph, platform and solver")
	}
	return nil
}

// ReplanSpec is one in-process replan request: a committed schedule (which
// carries its graph and pre-delta platform), the solver to repair or
// re-solve with, the platform delta, and the repair policy.
type ReplanSpec struct {
	Old    *schedule.Schedule
	Solver *core.Solver
	Delta  core.Delta
	// RepairBudget bounds search re-placements (0 = unlimited).
	RepairBudget int
	// NoColdFallback surfaces repair failure instead of re-solving cold.
	NoColdFallback bool
}

func (sp ReplanSpec) validate() error {
	if sp.Old == nil || sp.Solver == nil {
		return errors.New("service: replan spec requires the committed schedule and a solver")
	}
	return nil
}

// Outcome is the in-process result of Solve, Replan or Simulate's solve,
// and the value the cache, the flights and the snapshot carry. Exactly one
// of ScheduleJSON (with Summary) and Infeasible is set.
type Outcome struct {
	// Hash is the canonical cache key of the request. Cached reports an
	// LRU hit; Coalesced that the call piggybacked on an identical
	// in-flight computation. The three describe one request: await sets
	// them on the copy it returns, and stored outcomes leave them zero.
	Hash      string
	Cached    bool
	Coalesced bool
	// Schedule is the result; ScheduleJSON its interchange rendering,
	// marshalled once at solve time and shared by every cache hit. Only
	// the outcome of the solve itself, as its leader and coalesced
	// followers receive it, carries the Schedule: the cache and the
	// snapshot keep the bytes alone, so a cache hit carries no Schedule.
	Schedule     *schedule.Schedule
	ScheduleJSON []byte
	Summary      *ScheduleSummary
	// Infeasible is the typed "no schedule exists" outcome.
	Infeasible *Infeasible
	// Replan carries the repair statistics of a Replan outcome.
	Replan *core.RepairStats
}

// BatchResult pairs one batch element's outcome with its error; exactly
// one of the two is meaningful.
type BatchResult struct {
	Outcome Outcome
	Err     error
}

// ---- public pipeline entry points ---------------------------------------

// Solve resolves one problem through cache → coalescing → admission →
// solver, waiting under ctx (which should carry the caller's deadline).
// Infeasibility is an Outcome, not an error; ErrQueueFull, ErrDraining and
// context errors are errors.
func (h *Handle) Solve(ctx context.Context, sp Spec) (Outcome, error) {
	return h.do(ctx, job{solve: sp})
}

// Replan resolves one replan request through the same pipeline as Solve,
// keyed by the canonical replan hash.
func (h *Handle) Replan(ctx context.Context, sp ReplanSpec) (Outcome, error) {
	return h.do(ctx, job{replan: sp, isReplan: true})
}

// SolveBatch resolves many problems, returning one result per spec in
// order. Every element is claimed first, in request order: cache hits and
// coalesced joins resolve without consuming solver capacity, and the led
// solves then fan out through core.Batch on a Workers-wide pool, each
// admitting itself as its own work unit, so one batch can never exceed
// the handle's Workers+QueueLimit bound. A nil result error accompanies a
// complete Outcome (possibly infeasible).
func (h *Handle) SolveBatch(ctx context.Context, specs []Spec) []BatchResult {
	sp := obs.FromContext(ctx)
	jobs := make([]job, len(specs))
	claims := make([]claimed, len(specs))
	var leads []int
	for i := range specs {
		jobs[i].solve = specs[i]
		if claims[i].err = h.open(&jobs[i], sp); claims[i].err != nil {
			continue
		}
		claims[i] = h.claim(&jobs[i], sp, false)
		if claims[i].f != nil && claims[i].state == hitSolved {
			leads = append(leads, i)
		}
	}
	if len(leads) > 0 {
		go h.leadBatch(claims, leads, sp)
	}
	results := make([]BatchResult, len(specs))
	for i := range specs {
		results[i].Outcome, results[i].Err = h.await(ctx, &jobs[i], claims[i], sp)
	}
	return results
}

// Simulate solves sp as a Solve job (same cache and hash space), then runs
// the scenario sweep on one reused sim.Engine as its own admitted work
// unit. The two acquisitions are sequential, never nested, so a
// one-worker handle cannot deadlock against its own solve. Empty
// scenarios run one default scenario; every scenario must pass
// checkScenarios. An infeasible problem returns its Outcome and no
// results.
func (h *Handle) Simulate(ctx context.Context, sp Spec, scenarios []Scenario) (Outcome, []ScenarioResult, error) {
	if err := sp.validate(); err != nil {
		return Outcome{}, nil, err
	}
	if err := checkScenarios(scenarios, sp); err != nil {
		return Outcome{}, nil, err
	}
	out, err := h.Solve(ctx, sp)
	if err != nil || out.Infeasible != nil {
		return out, nil, err
	}
	sched := out.Schedule
	if sched == nil {
		// A cache hit: the cache keeps only the rendered bytes, so rebuild
		// the in-memory schedule from them against this request's problem
		// — an identical hash means an identical problem.
		if sched, err = schedule.LoadJSON(out.ScheduleJSON, sp.Graph, sp.Platform); err != nil {
			return out, nil, err
		}
	}
	release, err := h.admit(ctx)
	if err != nil {
		return out, nil, err
	}
	defer release()

	ss := obs.FromContext(ctx).Child("simulate")
	defer ss.End()
	if len(scenarios) == 0 {
		scenarios = []Scenario{{}}
	}
	if ss.Active() {
		ss.SetArg("scenarios", len(scenarios))
	}
	// One engine for the whole sweep: the derived schedule tables and the
	// simulation state buffers are built once and reused per scenario.
	eng, err := sim.NewEngine(sched)
	if err != nil {
		return out, nil, err
	}
	results := make([]ScenarioResult, len(scenarios))
	for i, sc := range scenarios {
		if results[i], err = h.runScenario(ctx, eng, sched, sc); err != nil {
			return out, nil, err
		}
	}
	return out, results, nil
}

// ReasonScenarioTooLarge is the stable leading token of the error message
// rejecting a sweep with more scenarios than maxScenarios, or a scenario
// with more items than maxScenarioSlots allows.
const ReasonScenarioTooLarge = "scenario-too-large"

// maxScenarioSlots bounds the items × exit tasks completion slots (float64,
// so 32 MiB) that sim.Engine allocates before a run's first event.
// sim.DefaultConfig's 3S+40 items stay far below it.
const maxScenarioSlots = 1 << 22

// maxScenarios bounds the scenarios of one sweep: each runs the simulator
// and adds a result to a reply that is held whole before it is written.
const maxScenarios = 1024

// checkScenarios rejects what the simulator must not be asked to run: more
// scenarios than maxScenarios, more items than maxScenarioSlots holds for
// the graph's exit tasks, which no deadline could interrupt, or a crash
// processor outside the platform, which would index past the engine's
// per-processor state.
func checkScenarios(scenarios []Scenario, sp Spec) error {
	if len(scenarios) > maxScenarios {
		return fmt.Errorf("%s: %d scenarios exceed %d per request", ReasonScenarioTooLarge, len(scenarios), maxScenarios)
	}
	procs := sp.Platform.NumProcs()
	exits := max(len(sp.Graph.Exits()), 1)
	for _, sc := range scenarios {
		if sc.Items > maxScenarioSlots/exits {
			return fmt.Errorf("%s: %d items × %d exit tasks exceed %d simulation slots", ReasonScenarioTooLarge, sc.Items, exits, maxScenarioSlots)
		}
		for _, u := range sc.CrashProcs {
			if u < 0 || u >= procs {
				return fmt.Errorf("service: crash processor %d out of range [0,%d)", u, procs)
			}
		}
	}
	return nil
}

// runScenario executes one scenario on the sweep's engine.
func (h *Handle) runScenario(ctx context.Context, eng *sim.Engine, sched *schedule.Schedule, sc Scenario) (ScenarioResult, error) {
	cfg := sim.DefaultConfig(sched)
	if sc.Items > 0 {
		cfg.Items = sc.Items
	}
	if sc.Warmup > 0 {
		cfg.Warmup = sc.Warmup
	}
	cfg.Synchronous = sc.Synchronous
	if len(sc.CrashProcs) > 0 {
		procs := make([]platform.ProcID, len(sc.CrashProcs))
		for i, u := range sc.CrashProcs {
			procs[i] = platform.ProcID(u)
		}
		cfg.Failures = sim.FailureSpec{Procs: procs, At: sc.CrashAt}
	}
	h.m.simRuns.Add(1)
	res, err := eng.Run(ctx, cfg)
	if err != nil {
		return ScenarioResult{}, err
	}
	return ScenarioResult{
		Name:           sc.Name,
		MeanLatency:    jsonFloat(res.MeanLatency),
		MaxLatency:     jsonFloat(res.MaxLatency),
		AchievedPeriod: jsonFloat(res.AchievedPeriod),
		Delivered:      res.Delivered,
		Items:          res.Items,
	}, nil
}

// ---- the job path ----------------------------------------------------------

// job is one request on the path: its cache key plus what a led flight
// computes. The specs travel by value — a closure over them would escape
// into the flight goroutine and cost an allocation on every request, cache
// hits included — and a leader copies its job into the flight it starts.
type job struct {
	hash     string
	solve    Spec
	replan   ReplanSpec
	isReplan bool
}

// hitState records how an outcome was obtained.
type hitState int

const (
	hitSolved hitState = iota
	hitCache
	hitCoalesced
)

// claimed is a job between claim and await: a cache hit (state hitCache,
// out final), a follower (hitCoalesced) or the leader (hitSolved) of
// flight f, or a refusal err.
type claimed struct {
	state hitState
	f     *flight
	out   Outcome
	err   error
}

// do runs one job along the whole path, waiting under ctx.
func (h *Handle) do(ctx context.Context, j job) (Outcome, error) {
	sp := obs.FromContext(ctx)
	if err := h.open(&j, sp); err != nil {
		return Outcome{}, err
	}
	return h.await(ctx, &j, h.claim(&j, sp, true), sp)
}

// open refuses new work while draining, validates the job and computes
// its cache key under a "hash" span.
func (h *Handle) open(j *job, sp obs.SpanRef) error {
	if h.Draining() {
		return ErrDraining
	}
	if j.isReplan {
		if err := j.replan.validate(); err != nil {
			return err
		}
		hs := sp.Child("hash")
		var err error
		j.hash, err = ReplanHash(j.replan)
		hs.End()
		return err
	}
	if err := j.solve.validate(); err != nil {
		return err
	}
	hs := sp.Child("hash")
	j.hash = ProblemHash(j.solve.Graph, j.solve.Platform, j.solve.Solver)
	hs.End()
	return nil
}

// claim resolves j from the cache, or joins its key's flight — as a
// follower of an existing one, or as the leader of a new one, which it
// starts detached when detach is set (otherwise the caller must run it).
func (h *Handle) claim(j *job, sp obs.SpanRef, detach bool) claimed {
	cs := sp.Child("cache")
	out, ok := h.cache.Get(j.hash)
	cs.End()
	if ok {
		h.m.cacheHits.Add(1)
		return claimed{state: hitCache, out: out}
	}
	f, leader, err := h.claimFlight(j.hash)
	if err != nil {
		return claimed{err: err}
	}
	if !leader {
		h.m.coalesced.Add(1)
		return claimed{state: hitCoalesced, f: f}
	}
	h.m.cacheMisses.Add(1)
	f.job = *j
	if detach {
		go h.lead(f, sp)
	}
	return claimed{state: hitSolved, f: f}
}

// await waits for a claimed job's outcome under ctx. A follower whose
// foreign flight panicked re-enters the path at claim — the panic is the
// leader's failure, not the problem's — at most maxPanicRetries times, so
// a deterministically panicking computation still surfaces.
func (h *Handle) await(ctx context.Context, j *job, c claimed, sp obs.SpanRef) (Outcome, error) {
	for attempt := 0; ; attempt++ {
		out, err := c.out, c.err
		switch {
		case c.f == nil: // a cache hit or a refusal: already resolved
		case c.state == hitSolved:
			out, err = c.f.Wait(ctx)
		default:
			cw := sp.Child("coalesce")
			out, err = c.f.Wait(ctx)
			cw.End()
			if errors.Is(err, ErrInternalPanic) && attempt < maxPanicRetries {
				c = h.claim(j, sp, true)
				continue
			}
		}
		if err != nil {
			return Outcome{Hash: j.hash}, err
		}
		out.Hash, out.Cached, out.Coalesced = j.hash, c.state == hitCache, c.state == hitCoalesced
		return out, nil
	}
}

// lead runs one led flight detached from every requester's context, under
// the handle's own compute budget. Queue-full is decided immediately
// (admit rejects without blocking when the bound is exceeded), so a
// rejected flight resolves at once.
func (h *Handle) lead(f *flight, sp obs.SpanRef) {
	// Registered before Fulfill's work so it runs after it: when the drain
	// WaitGroup clears, every flight's outcome is committed to the cache.
	defer h.flightWG.Done()
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.MaxTimeout)
	defer cancel()
	h.fly(ctx, f, sp)
}

// leadBatch runs a batch's led flights on one Workers-wide core.Batch
// pool under the handle's compute budget. Each flight is fulfilled (and
// the cache filled) the moment its own result lands — a waiter coalesced
// onto problem #1 must not stall behind problem #100 — and admits itself:
// the pool's goroutines queue on the shared worker slots, they do not
// multiply them.
func (h *Handle) leadBatch(claims []claimed, leads []int, sp obs.SpanRef) {
	// One WaitGroup registration per led flight (claimFlight); all of them
	// resolve — including the leftover loop below — before this returns.
	defer func() {
		for range leads {
			h.flightWG.Done()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.MaxTimeout)
	defer cancel()
	// The hook reads each flight's job; the requests only size the pool.
	batch := core.Batch{Workers: h.cfg.Workers}
	results := batch.SolveFunc(ctx, make([]core.Request, len(leads)), func(ctx context.Context, k int, _ core.Request) (*schedule.Schedule, error) {
		h.fly(ctx, claims[leads[k]].f, sp)
		return nil, nil // the flight carries the outcome
	})
	// SolveFunc fails requests fast without running the hook once its
	// context expires; their flights must still resolve or waiters would
	// hang until their own deadlines.
	for k, i := range leads {
		if err := results[k].Err; err != nil {
			f := claims[i].f
			h.flights.Fulfill(f.job.hash, f, Outcome{}, err)
		}
	}
}

// fly computes a led flight's job under a "flight" span and fulfills it.
// The flight runs detached from the requester's context, but its spans
// belong to the leading requester's trace: an abandoned flight keeps
// writing to the trace after Finish — recorded, never raced (obs.Trace is
// mutex'd).
func (h *Handle) fly(ctx context.Context, f *flight, sp obs.SpanRef) {
	fs := sp.Child("flight")
	if fs.Active() {
		fs.SetArg("hash", f.job.hash[:12])
	}
	out, err := h.resolve(obs.ContextWith(ctx, fs), &f.job)
	fs.End()
	h.flights.Fulfill(f.job.hash, f, out, err)
}

// resolve is a led flight's body behind the panic isolation boundary: a
// panic anywhere below (solver fault or injected) unwinds the admission
// defers and becomes an ErrInternalPanic error for the flight's waiters
// instead of reaching the detached goroutine's top, where it would kill
// the process, not a request. It re-checks the cache first — a previous
// flight may have fulfilled and vanished between this job's cache miss and
// its claim, and recomputing an already-cached key would break the "equal
// hashes compute once" invariant — then admits, computes, folds typed
// infeasibility into the outcome (a result, not a failure), renders, and
// fills the cache with the outcome minus its Schedule: the rendered bytes
// are all a hit replies with, and the schedule's replicas, transfers and
// tables would otherwise stay live as long as the entry.
func (h *Handle) resolve(ctx context.Context, j *job) (out Outcome, err error) {
	defer h.recoverFault(&err)
	if out, ok := h.cache.Get(j.hash); ok {
		return out, nil
	}
	release, err := h.admit(ctx)
	if err != nil {
		return Outcome{}, err
	}
	defer release()
	if err := h.injectFlightFaults(ctx); err != nil {
		return Outcome{}, err
	}
	// Replans count as solver invocations too: the coalescing and caching
	// invariants are asserted against solveCalls.
	h.m.solveCalls.Add(1)
	sp := obs.FromContext(ctx)
	ss := sp.Child("solve")
	if ss.Active() && j.isReplan {
		ss.SetArg("kind", "replan")
	}
	sched, stats, err := h.run(obs.ContextWith(ctx, ss), j)
	ss.End()
	if err != nil {
		out, err = foldInfeasible(err)
	} else {
		rs := sp.Child("render")
		out, err = renderOutcome(sched)
		rs.End()
		out.Replan = stats
	}
	if err == nil {
		stored := out
		stored.Schedule = nil
		h.cache.Put(j.hash, stored)
	}
	return out, err
}

// foldInfeasible converts an infeasibility error into a cacheable outcome;
// any other error propagates.
func foldInfeasible(err error) (Outcome, error) {
	var ie *infeas.Error
	if errors.As(err, &ie) {
		return Outcome{Infeasible: ie}, nil
	}
	if errors.Is(err, infeas.ErrInfeasible) {
		return Outcome{Infeasible: infeas.New(infeas.ReasonUnknown, 0, err.Error())}, nil
	}
	return Outcome{}, err
}

// renderOutcome serializes the schedule once, at solve time; cache hits
// reuse the rendered bytes instead of re-marshalling the schedule struct.
// MarshalJSON's bytes are already compact, so they are taken as they are:
// json.Marshal would only re-scan them.
func renderOutcome(sched *schedule.Schedule) (Outcome, error) {
	raw, err := sched.MarshalJSON()
	if err != nil {
		return Outcome{}, fmt.Errorf("service: encoding schedule: %w", err)
	}
	return Outcome{Schedule: sched, ScheduleJSON: raw, Summary: summarize(sched)}, nil
}

// run performs the job's underlying computation: the solve, or the replan
// with its repair statistics.
func (h *Handle) run(ctx context.Context, j *job) (*schedule.Schedule, *core.RepairStats, error) {
	if !j.isReplan {
		sched, err := h.solve(ctx, j.solve.Solver, j.solve.Graph, j.solve.Platform)
		return sched, nil, err
	}
	rp := &j.replan
	res, err := h.replan(ctx, rp.Solver, rp.Old, rp.Delta,
		core.WithRepairBudget(rp.RepairBudget), core.WithColdFallback(!rp.NoColdFallback))
	if err != nil {
		return nil, nil, err
	}
	stats := res.Stats
	return res.Schedule, &stats, nil
}

// admit acquires one work unit under an "admission" span: a place within
// the Workers+QueueLimit bound, then a worker slot. It returns the release
// function, ErrQueueFull when the bound is exceeded, or ctx.Err() if the
// deadline expires while queued.
func (h *Handle) admit(ctx context.Context) (release func(), err error) {
	as := obs.FromContext(ctx).Child("admission")
	defer as.End()
	if faultinject.Fire(SiteAdmitReject) {
		h.m.rejected.Add(1)
		return nil, ErrQueueFull
	}
	limit := int64(h.cfg.Workers + h.cfg.QueueLimit)
	if h.m.pending.Add(1) > limit {
		h.m.pending.Add(-1)
		h.m.rejected.Add(1)
		return nil, ErrQueueFull
	}
	select {
	case h.slots <- struct{}{}:
		h.m.inFlight.Add(1)
		return func() {
			<-h.slots
			h.m.inFlight.Add(-1)
			h.m.pending.Add(-1)
		}, nil
	case <-ctx.Done():
		h.m.pending.Add(-1)
		return nil, ctx.Err()
	}
}
