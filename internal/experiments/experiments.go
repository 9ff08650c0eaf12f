// Package experiments regenerates the paper's evaluation (§5): for each
// granularity point, 60 random graphs are generated, scheduled with LTF,
// R-LTF and the fault-free reference, measured with the discrete-event
// simulator (with and without crashes), and averaged. The Figure 3 and 4
// series are column views over the resulting points; the Figure 1 and 2
// worked examples live in fig12.go.
//
// The harness is built on the core solving API: every (granularity,
// replicate) cell of a campaign contributes its three scheduling requests
// (fault-free reference, LTF, R-LTF) to one core.Batch, so the whole
// campaign's schedules are computed concurrently on a bounded worker pool
// rather than point by point; the simulation phase then fans every schedule
// of the surviving cells (with all its scenarios, on one shared engine)
// across the same worker budget, so even a single-cell campaign
// parallelizes. Cells remain individually seeded and every scenario writes
// to its own result slot, so the results are deterministic for any worker
// count.
package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
	"streamsched/internal/sim"
	"streamsched/internal/stats"
)

// Config parameterizes one sweep (one of the paper's figure pairs).
type Config struct {
	// Eps is ε (1 for Figure 3, 3 for Figure 4).
	Eps int
	// Crashes is c, the number of processors crashed in the failure runs
	// (1 for Figure 3b, 2 for Figure 4b). Must be ≤ Eps.
	Crashes int
	// Granularities lists the sweep points (paper: 0.2..2.0 step 0.2).
	Granularities []float64
	// GraphsPerPoint is the sample count per point (paper: 60).
	GraphsPerPoint int
	// Procs is m (paper: 20).
	Procs int
	// PeriodBase is Δ_base; the enforced period is Δ_base·(ε+1) and the
	// fault-free reference runs at Δ_base (paper: throughput 1/(10(ε+1))).
	PeriodBase float64
	// ComputeFraction is the workload calibration φ (see DESIGN.md §3).
	ComputeFraction float64
	// Seed makes the sweep reproducible.
	Seed uint64
	// Workers bounds the parallel instance evaluations (0 → GOMAXPROCS).
	Workers int
}

// DefaultConfig returns the paper's setup for the given ε and crash count.
func DefaultConfig(eps, crashes int) Config {
	return Config{
		Eps:             eps,
		Crashes:         crashes,
		Granularities:   []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0},
		GraphsPerPoint:  60,
		Procs:           20,
		PeriodBase:      10,
		ComputeFraction: 0.2,
		Seed:            20090420, // the report's submission date
	}
}

// Point aggregates one granularity point (means over the instances where
// all three schedulers succeeded).
type Point struct {
	Granularity float64
	N           int // instances aggregated

	// Latency upper bounds (2S−1)·Δ.
	LTFBound, RLTFBound, FFBound float64
	// Measured mean latencies under the paper's stage-synchronized pipeline
	// semantics, without and with c crashed processors. These are the
	// figures' "With 0 Crash" / "With Crash" curves.
	LTFSync0, RLTFSync0, FFSync0 float64
	LTFSyncC, RLTFSyncC          float64
	// Measured mean latencies under free-running dataflow execution —
	// additional data the paper does not report.
	LTFSim0, RLTFSim0, FFSim0 float64
	LTFSimC, RLTFSimC         float64
	// Fault-tolerance overheads (%), measured against the fault-free
	// reference: 100·(L − L_FF)/L_FF.
	OverheadLTF0, OverheadLTFC, OverheadRLTF0, OverheadRLTFC float64
	// Mean pipeline stage counts.
	LTFStages, RLTFStages float64
	// Mean inter-processor communication counts.
	LTFComms, RLTFComms float64

	// Failures to schedule (out of GraphsPerPoint attempts).
	LTFFail, RLTFFail, FFFail int
}

// instanceResult carries one graph's measurements.
type instanceResult struct {
	ok                     bool
	ltfFail, rltfFail, ffF bool

	ltfBound, rltfBound, ffBound float64
	ltfSync0, rltfSync0, ffSync0 float64
	ltfSyncC, rltfSyncC          float64
	ltfSim0, rltfSim0, ffSim0    float64
	ltfSimC, rltfSimC            float64
	ltfStages, rltfStages        float64
	ltfComms, rltfComms          float64
}

// cell is one (granularity, replicate) instance of a campaign, generated
// up-front from its own deterministic seed.
type cell struct {
	gi, rep int
	gran    float64
	g       *dag.Graph
	p       *platform.Platform
	crashed []platform.ProcID
}

// makeCell draws one cell. The rng consumption order (platform, graph,
// crash sample) is part of the campaign's reproducibility contract.
func makeCell(cfg Config, gi, rep int, gran float64) cell {
	r := rng.New(cfg.Seed ^ uint64(gi)<<32 ^ uint64(rep)<<8 ^ uint64(cfg.Eps))
	p := platform.RandomHeterogeneous(r, cfg.Procs, 0.5, 1.0, 0.5, 1.0, 100)
	gcfg := randgraph.DefaultStreamConfig()
	if cfg.ComputeFraction > 0 {
		gcfg.ComputeFraction = cfg.ComputeFraction
	}
	gcfg.Granularity = gran
	gcfg.PeriodBase = cfg.PeriodBase
	c := cell{gi: gi, rep: rep, gran: gran, p: p, g: randgraph.Stream(r, gcfg, p)}
	if cfg.Crashes > 0 {
		// "Processors that fail ... are chosen uniformly" — same crash set
		// for both algorithms, for a paired comparison.
		for _, u := range r.Sample(cfg.Procs, cfg.Crashes) {
			c.crashed = append(c.crashed, platform.ProcID(u))
		}
	}
	return c
}

// Run executes the sweep and returns one Point per granularity. The whole
// campaign — every granularity's schedules and simulations — runs
// concurrently under cfg.Workers; a cancelled ctx aborts with ctx.Err().
func Run(ctx context.Context, cfg Config) ([]Point, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.GraphsPerPoint <= 0 {
		cfg.GraphsPerPoint = 60
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Phase 1: generate every cell of the campaign.
	cells := make([]cell, 0, len(cfg.Granularities)*cfg.GraphsPerPoint)
	for gi, gran := range cfg.Granularities {
		for rep := 0; rep < cfg.GraphsPerPoint; rep++ {
			cells = append(cells, makeCell(cfg, gi, rep, gran))
		}
	}

	// Phase 2: one batch of 3 requests per cell — the fault-free reference
	// at Δ_base and LTF/R-LTF at Δ_base·(ε+1) — solved concurrently.
	period := cfg.PeriodBase * float64(cfg.Eps+1)
	reqs := make([]core.Request, 0, 3*len(cells))
	for _, c := range cells {
		reqs = append(reqs,
			core.Request{Graph: c.g, Platform: c.p, Opts: []core.Option{
				core.WithAlgorithm(core.FaultFree), core.WithPeriod(cfg.PeriodBase)}},
			core.Request{Graph: c.g, Platform: c.p, Opts: []core.Option{
				core.WithAlgorithm(core.LTF), core.WithEps(cfg.Eps), core.WithPeriod(period)}},
			core.Request{Graph: c.g, Platform: c.p, Opts: []core.Option{
				core.WithAlgorithm(core.RLTF), core.WithEps(cfg.Eps), core.WithPeriod(period)}},
		)
	}
	batch := core.Batch{Workers: workers}
	solved := batch.Solve(ctx, reqs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 3: simulate the cells where all three schedulers succeeded.
	// Scenario sharding: every schedule of every surviving cell is its own
	// work unit on the pool (three per cell), so even a single-cell campaign
	// (interactive use) spreads across the workers instead of running its
	// scenarios serially. The unit is the schedule, not the single scenario:
	// each unit builds one engine and runs all of that schedule's scenarios
	// on it, keeping the schedule-to-tables conversion at once per schedule
	// (engines are not safe for concurrent Run calls, so finer sharding
	// would rebuild the engine per scenario). Every scenario writes to its
	// own result slot, which keeps the campaign deterministic for any worker
	// count.
	results := make([]instanceResult, len(cells))
	var jobs []simJob
	for i := range cells {
		ff, ls, rs := solved[3*i], solved[3*i+1], solved[3*i+2]
		// Only classified infeasibility counts as "the algorithm failed";
		// anything else (cancellation, bad config) aborts the campaign.
		for _, r := range []core.Result{ff, ls, rs} {
			if r.Err != nil && !errors.Is(r.Err, core.ErrInfeasible) {
				return nil, r.Err
			}
		}
		results[i].ffF = ff.Err != nil
		results[i].ltfFail = ls.Err != nil
		results[i].rltfFail = rs.Err != nil
		if results[i].ffF || results[i].ltfFail || results[i].rltfFail {
			continue
		}
		jobs = append(jobs, scenarioJobs(&results[i], cells[i], ff.Schedule, ls.Schedule, rs.Schedule)...)
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(j int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[j] = runScenarios(ctx, jobs[j])
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 4: aggregate per granularity point.
	points := make([]Point, len(cfg.Granularities))
	for gi, gran := range cfg.Granularities {
		byPoint := make([]instanceResult, 0, cfg.GraphsPerPoint)
		for i, c := range cells {
			if c.gi == gi {
				byPoint = append(byPoint, results[i])
			}
		}
		points[gi] = aggregate(gran, byPoint)
	}
	return points, nil
}

// simJob is one schedule's simulation work in the campaign's fan-out: the
// schedule plus every scenario (crash set × semantics) to run on it, all
// sharing one engine. Jobs of one cell write to distinct fields of its
// instanceResult, so they run concurrently without coordination.
type simJob struct {
	s     *schedule.Schedule
	scens []scenario
}

// scenario is one simulator configuration of a job and the result slot its
// mean latency lands in.
type scenario struct {
	out     *float64
	crashed []platform.ProcID
	sync    bool
}

// scenarioJobs fills one surviving cell's static measurements and returns
// its simulation work units: one per schedule, carrying 2 scenarios (plus 2
// crash scenarios per replicated schedule when the cell crashes
// processors).
func scenarioJobs(res *instanceResult, c cell, ff, ls, rs *schedule.Schedule) []simJob {
	res.ltfBound = ls.LatencyBound()
	res.rltfBound = rs.LatencyBound()
	res.ffBound = ff.LatencyBound()
	res.ltfStages = float64(ls.Stages())
	res.rltfStages = float64(rs.Stages())
	res.ltfComms = float64(ls.CrossComms())
	res.rltfComms = float64(rs.CrossComms())
	res.ok = true

	ffJob := simJob{ff, []scenario{{&res.ffSim0, nil, false}, {&res.ffSync0, nil, true}}}
	lsJob := simJob{ls, []scenario{{&res.ltfSim0, nil, false}, {&res.ltfSync0, nil, true}}}
	rsJob := simJob{rs, []scenario{{&res.rltfSim0, nil, false}, {&res.rltfSync0, nil, true}}}
	if len(c.crashed) > 0 {
		lsJob.scens = append(lsJob.scens,
			scenario{&res.ltfSimC, c.crashed, false}, scenario{&res.ltfSyncC, c.crashed, true})
		rsJob.scens = append(rsJob.scens,
			scenario{&res.rltfSimC, c.crashed, false}, scenario{&res.rltfSyncC, c.crashed, true})
	}
	return []simJob{ffJob, lsJob, rsJob}
}

// runScenarios executes one simulation work unit: every scenario of one
// schedule, on one shared engine.
func runScenarios(ctx context.Context, job simJob) error {
	eng, err := sim.NewEngine(job.s)
	if err != nil {
		return err
	}
	for _, sc := range job.scens {
		lat, err := meanLatency(ctx, eng, sc.crashed, sc.sync)
		if err != nil {
			return err
		}
		*sc.out = lat
	}
	return nil
}

// meanLatency runs the simulator and returns the mean measured latency.
func meanLatency(ctx context.Context, eng *sim.Engine, crashed []platform.ProcID, synchronous bool) (float64, error) {
	s := eng.Schedule()
	cfg := sim.DefaultConfig(s)
	cfg.Synchronous = synchronous
	if synchronous {
		// Under stage gating the per-item latency is near-deterministic in
		// steady state; a shorter window suffices.
		st := s.Stages()
		cfg.Items = 2*st + 20
		cfg.Warmup = st + 5
	}
	if len(crashed) > 0 {
		cfg.Failures = sim.FailureSpec{Procs: crashed}
	}
	res, err := eng.Run(ctx, cfg)
	if err != nil {
		return 0, err
	}
	return res.MeanLatency, nil
}

func aggregate(gran float64, results []instanceResult) Point {
	pt := Point{Granularity: gran}
	var ltfB, rltfB, ffB, ltf0, rltf0, ff0, ltfC, rltfC []float64
	var sy0L, sy0R, sy0F, syCL, syCR []float64
	var oL0, oLC, oR0, oRC []float64
	var stL, stR, cmL, cmR []float64
	for _, r := range results {
		if r.ltfFail {
			pt.LTFFail++
		}
		if r.rltfFail {
			pt.RLTFFail++
		}
		if r.ffF {
			pt.FFFail++
		}
		if !r.ok {
			continue
		}
		pt.N++
		ltfB = append(ltfB, r.ltfBound)
		rltfB = append(rltfB, r.rltfBound)
		ffB = append(ffB, r.ffBound)
		ltf0 = append(ltf0, r.ltfSim0)
		rltf0 = append(rltf0, r.rltfSim0)
		ff0 = append(ff0, r.ffSim0)
		sy0L = append(sy0L, r.ltfSync0)
		sy0R = append(sy0R, r.rltfSync0)
		sy0F = append(sy0F, r.ffSync0)
		stL = append(stL, r.ltfStages)
		stR = append(stR, r.rltfStages)
		cmL = append(cmL, r.ltfComms)
		cmR = append(cmR, r.rltfComms)
		oL0 = append(oL0, 100*(r.ltfSync0-r.ffSync0)/r.ffSync0)
		oR0 = append(oR0, 100*(r.rltfSync0-r.ffSync0)/r.ffSync0)
		if r.ltfSyncC > 0 {
			ltfC = append(ltfC, r.ltfSimC)
			rltfC = append(rltfC, r.rltfSimC)
			syCL = append(syCL, r.ltfSyncC)
			syCR = append(syCR, r.rltfSyncC)
			oLC = append(oLC, 100*(r.ltfSyncC-r.ffSync0)/r.ffSync0)
			oRC = append(oRC, 100*(r.rltfSyncC-r.ffSync0)/r.ffSync0)
		}
	}
	pt.LTFBound = stats.Mean(ltfB)
	pt.RLTFBound = stats.Mean(rltfB)
	pt.FFBound = stats.Mean(ffB)
	pt.LTFSim0 = stats.Mean(ltf0)
	pt.RLTFSim0 = stats.Mean(rltf0)
	pt.FFSim0 = stats.Mean(ff0)
	pt.LTFSimC = stats.Mean(ltfC)
	pt.RLTFSimC = stats.Mean(rltfC)
	pt.LTFSync0 = stats.Mean(sy0L)
	pt.RLTFSync0 = stats.Mean(sy0R)
	pt.FFSync0 = stats.Mean(sy0F)
	pt.LTFSyncC = stats.Mean(syCL)
	pt.RLTFSyncC = stats.Mean(syCR)
	pt.OverheadLTF0 = stats.Mean(oL0)
	pt.OverheadLTFC = stats.Mean(oLC)
	pt.OverheadRLTF0 = stats.Mean(oR0)
	pt.OverheadRLTFC = stats.Mean(oRC)
	pt.LTFStages = stats.Mean(stL)
	pt.RLTFStages = stats.Mean(stR)
	pt.LTFComms = stats.Mean(cmL)
	pt.RLTFComms = stats.Mean(cmR)
	return pt
}
