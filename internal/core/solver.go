package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"streamsched/internal/dag"
	"streamsched/internal/infeas"
	"streamsched/internal/ltf"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/rltf"
	"streamsched/internal/schedule"
)

// Typed infeasibility surface, re-exported from internal/infeas so that
// callers never import the leaf package: an instance that admits no
// schedule yields an error matching errors.Is(err, ErrInfeasible), and
// errors.As recovers the *InfeasibleError carrying the classified Reason,
// the offending Task/Copy/Proc and the Period probed.
var ErrInfeasible = infeas.ErrInfeasible

type (
	// InfeasibleError is the classified infeasibility (wraps ErrInfeasible).
	InfeasibleError = infeas.Error
	// Reason classifies an infeasibility.
	Reason = infeas.Reason
)

// Infeasibility reasons.
const (
	// ReasonPeriodExceeded: a compute load cannot fit within the period.
	ReasonPeriodExceeded = infeas.ReasonPeriodExceeded
	// ReasonPortOverload: a one-port send/receive budget is exhausted.
	ReasonPortOverload = infeas.ReasonPortOverload
	// ReasonNoProcessor: no admissible processor exists (e.g. ε+1 > m).
	ReasonNoProcessor = infeas.ReasonNoProcessor
	// ReasonLatencyExceeded: feasible, but above the WithLatencyCap bound.
	ReasonLatencyExceeded = infeas.ReasonLatencyExceeded
	// ReasonSearchExhausted: a tri-criteria search found no feasible point.
	ReasonSearchExhausted = infeas.ReasonSearchExhausted
)

// latencyTol absorbs floating-point jitter in the latency-cap comparison
// (mirrors the feasibility tolerance of internal/mapper).
const latencyTol = 1e-9

// Solver is the configured entry point to the scheduling algorithms. A
// Solver is immutable after construction, safe for concurrent use, and
// cheap to build — searches construct one per probe. Configure it with the
// functional options below; the zero configuration (algorithm R-LTF, ε = 0,
// one-to-one mapping on, no latency cap) still needs WithPeriod.
type Solver struct {
	algo       Algorithm
	eps        int
	period     float64
	chunkSize  int
	lookahead  int
	oneToOne   bool
	latencyCap float64
}

// Option configures a Solver; options are applied in order by NewSolver
// and validated as they apply.
type Option func(*Solver) error

// WithAlgorithm selects LTF, RLTF, FaultFree or Portfolio (default RLTF,
// the paper's recommendation).
func WithAlgorithm(a Algorithm) Option {
	return func(s *Solver) error {
		switch a {
		case LTF, RLTF, FaultFree, Portfolio:
			s.algo = a
			return nil
		default:
			return fmt.Errorf("core: unknown algorithm %v", a)
		}
	}
}

// WithEps sets ε, the number of arbitrary processor failures the schedule
// must survive (each task runs as ε+1 replicas; default 0). FaultFree
// ignores ε.
func WithEps(eps int) Option {
	return func(s *Solver) error {
		if eps < 0 {
			return fmt.Errorf("core: negative ε %d", eps)
		}
		s.eps = eps
		return nil
	}
}

// WithPeriod sets Δ = 1/T, the required iteration period. Mandatory: a
// Solver without a positive period fails at NewSolver.
func WithPeriod(period float64) Option {
	return func(s *Solver) error {
		if period <= 0 {
			return fmt.Errorf("core: non-positive period %v", period)
		}
		s.period = period
		return nil
	}
}

// WithChunkSize overrides the iso-level chunk bound B (default 0 → m).
func WithChunkSize(b int) Option {
	return func(s *Solver) error {
		if b < 0 {
			return fmt.Errorf("core: negative chunk size %d", b)
		}
		s.chunkSize = b
		return nil
	}
}

// WithLookahead sets the speculative placement window k (default 1, no
// speculation). With k > 1 the placement loop pops windows of k ready tasks,
// builds every candidate placement strategy for the window under a journal
// transaction, scores each complete placement by (max stage, max finish),
// and keeps the best — trading construction time for schedule quality.
// k = 1 reproduces the plain chunked loop exactly. k < 1 is a
// configuration error.
func WithLookahead(k int) Option {
	return func(s *Solver) error {
		if k < 1 {
			return fmt.Errorf("core: non-positive lookahead %d", k)
		}
		s.lookahead = k
		return nil
	}
}

// WithOneToOne toggles the one-to-one communication-mapping procedure
// (default on; off forces full (ε+1)² communication replication, the
// ablation baseline).
func WithOneToOne(on bool) Option {
	return func(s *Solver) error {
		s.oneToOne = on
		return nil
	}
}

// WithLatencyCap rejects schedules whose latency bound (2S−1)·Δ exceeds
// cap, as a ReasonLatencyExceeded infeasibility. cap ≤ 0 disables the
// check (the default).
func WithLatencyCap(cap float64) Option {
	return func(s *Solver) error {
		s.latencyCap = cap
		return nil
	}
}

// NewSolver builds a Solver from the options, validating each as it
// applies and requiring WithPeriod.
func NewSolver(opts ...Option) (*Solver, error) {
	s := &Solver{algo: RLTF, oneToOne: true, lookahead: 1}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.period <= 0 {
		return nil, fmt.Errorf("core: solver requires WithPeriod(Δ > 0)")
	}
	return s, nil
}

// Algorithm reports the configured algorithm.
func (s *Solver) Algorithm() Algorithm { return s.algo }

// Fingerprint returns a canonical, versioned encoding of the Solver's
// configuration. Two Solvers with identical fingerprints produce identical
// schedules for identical inputs (solving is deterministic), so the string
// is a sound cache-key component; the service layer hashes it together with
// the graph and platform (internal/service). Floats are encoded as IEEE-754
// bit patterns so the fingerprint never loses precision to formatting.
func (s *Solver) Fingerprint() string {
	return fmt.Sprintf("solver/v1 algo=%d eps=%d period=%016x chunk=%d look=%d o2o=%t lcap=%016x",
		int(s.algo), s.eps, math.Float64bits(s.period), s.chunkSize,
		s.lookahead, s.oneToOne, math.Float64bits(s.latencyCap))
}

// Period reports the configured period Δ.
func (s *Solver) Period() float64 { return s.period }

// Eps reports the configured ε.
func (s *Solver) Eps() int { return s.eps }

// Solve schedules g on p under the configured constraints. Infeasibility —
// including a feasible schedule rejected by WithLatencyCap — is reported as
// an error matching errors.Is(err, ErrInfeasible); a cancelled ctx aborts
// the placement loop with ctx.Err(); anything else is a solver fault.
func (s *Solver) Solve(ctx context.Context, g *dag.Graph, p *platform.Platform) (*schedule.Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil || p == nil {
		return nil, fmt.Errorf("core: nil graph or platform")
	}
	// Graph validation is left to mapper.New on every algorithm path —
	// validating here too would double (triple, under Portfolio) an
	// O(V+E) pass the searches repeat per probe.
	if sp := obs.FromContext(ctx); sp.Active() {
		sp.SetArg("algo", s.algo.String())
		sp.SetArg("eps", s.eps)
	}
	var (
		sched *schedule.Schedule
		err   error
	)
	if s.algo == Portfolio {
		sched, err = s.racePortfolio(ctx, g, p)
	} else {
		sched, err = s.runAlgorithm(ctx, s.algo, g, p)
	}
	if err != nil {
		return nil, err
	}
	if s.latencyCap > 0 && sched.LatencyBound() > s.latencyCap+latencyTol {
		return nil, infeas.Newf(ReasonLatencyExceeded, s.period,
			"latency bound %g exceeds cap %g", sched.LatencyBound(), s.latencyCap)
	}
	return sched, nil
}

// runAlgorithm dispatches one concrete algorithm.
func (s *Solver) runAlgorithm(ctx context.Context, algo Algorithm, g *dag.Graph, p *platform.Platform) (*schedule.Schedule, error) {
	opts := ltf.Options{ChunkSize: s.chunkSize, DisableOneToOne: !s.oneToOne, Lookahead: s.lookahead}
	switch algo {
	case LTF:
		return ltf.Schedule(ctx, g, p, s.eps, s.period, opts)
	case RLTF:
		return rltf.Schedule(ctx, g, p, s.eps, s.period, opts)
	case FaultFree:
		// The fault-free reference always maps communications one-to-one.
		opts.DisableOneToOne = false
		return rltf.FaultFree(ctx, g, p, s.period, opts)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", algo)
	}
}

// racePortfolio runs LTF and R-LTF concurrently on the instance and keeps
// the feasible schedule with the lower latency bound (ties favour R-LTF,
// the paper's recommendation). Both infeasible: the R-LTF error is
// returned. Any non-infeasibility error (including ctx cancellation) wins
// over an infeasibility, so solver faults are never masked.
func (s *Solver) racePortfolio(ctx context.Context, g *dag.Graph, p *platform.Platform) (*schedule.Schedule, error) {
	type outcome struct {
		sched *schedule.Schedule
		err   error
	}
	var ltfOut, rltfOut outcome
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ltfOut.sched, ltfOut.err = s.runAlgorithm(ctx, LTF, g, p)
	}()
	go func() {
		defer wg.Done()
		rltfOut.sched, rltfOut.err = s.runAlgorithm(ctx, RLTF, g, p)
	}()
	wg.Wait()
	for _, o := range []outcome{rltfOut, ltfOut} {
		if o.err != nil && !errors.Is(o.err, ErrInfeasible) {
			return nil, o.err
		}
	}
	switch {
	case rltfOut.err != nil && ltfOut.err != nil:
		return nil, rltfOut.err
	case rltfOut.err != nil:
		return ltfOut.sched, nil
	case ltfOut.err != nil:
		return rltfOut.sched, nil
	case ltfOut.sched.LatencyBound() < rltfOut.sched.LatencyBound():
		return ltfOut.sched, nil
	default:
		return rltfOut.sched, nil
	}
}

// Request is one instance of a batch: a graph/platform pair plus optional
// per-request option overrides, applied after the batch-wide defaults.
type Request struct {
	Graph    *dag.Graph
	Platform *platform.Platform
	Opts     []Option
}

// Result is the outcome of one batch request: exactly one of Schedule and
// Err is non-nil. Err preserves the full typed error surface of
// Solver.Solve (errors.Is ErrInfeasible, ctx errors, option errors).
type Result struct {
	Schedule *schedule.Schedule
	Err      error
}

// Batch fans requests across a bounded worker pool. The zero value is
// usable: GOMAXPROCS workers and no default options.
type Batch struct {
	// Workers bounds the concurrent solves (≤ 0 → GOMAXPROCS).
	Workers int
	// Opts are defaults applied to every request before its own Opts.
	Opts []Option
}

// Solve runs every request and returns the results in request order; each
// request's error is captured in its Result rather than aborting the batch.
// Requests are independent and each is solved deterministically, so the
// results are identical for any worker count. After ctx is cancelled,
// remaining requests fail fast with ctx.Err().
func (b *Batch) Solve(ctx context.Context, reqs []Request) []Result {
	return b.SolveFunc(ctx, reqs, b.solveOne)
}

// SolveFunc is Solve with a caller-supplied solve function: the requests
// fan across the same bounded pool with the same ordering and fail-fast
// semantics, but each request is executed by fn (which receives its index
// and the request) instead of a solver built from the option lists. The
// service layer routes pre-validated per-request solvers — and its test
// seams — through the batch pool this way.
func (b *Batch) SolveFunc(ctx context.Context, reqs []Request, fn func(ctx context.Context, i int, req Request) (*schedule.Schedule, error)) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					results[i] = Result{Err: err}
					continue
				}
				sched, err := fn(ctx, i, reqs[i])
				if err != nil {
					results[i] = Result{Err: err}
				} else {
					results[i] = Result{Schedule: sched}
				}
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// solveOne builds the per-request solver and runs it.
func (b *Batch) solveOne(ctx context.Context, _ int, req Request) (*schedule.Schedule, error) {
	opts := make([]Option, 0, len(b.Opts)+len(req.Opts))
	opts = append(opts, b.Opts...)
	opts = append(opts, req.Opts...)
	solver, err := NewSolver(opts...)
	if err != nil {
		return nil, err
	}
	return solver.Solve(ctx, req.Graph, req.Platform)
}

// SolveMany solves the requests concurrently on a GOMAXPROCS-bounded pool
// with opts as batch-wide defaults. It is shorthand for Batch.Solve.
func SolveMany(ctx context.Context, reqs []Request, opts ...Option) []Result {
	return (&Batch{Opts: opts}).Solve(ctx, reqs)
}
