package main

// The campaign workload: a reduced paper sweep through experiments.Run —
// the Fig. 3 setting (ε=1, one crash) and the Fig. 4 setting (ε=3, two
// crashes) over three granularities — repeated for the timed phase. Each
// cell makes three solves (FF, LTF, R-LTF) and up to ten simulations. The
// sweep uses the paper's fixed seed (experiments.DefaultConfig), so every
// repetition and every run sweeps the same cells.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/experiments"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
	"streamsched/internal/sim"
	"streamsched/internal/stats"
)

func campaignConfigs(tiny bool) []experiments.Config {
	var cfgs []experiments.Config
	for _, setting := range [][2]int{{1, 1}, {3, 2}} {
		cfg := experiments.DefaultConfig(setting[0], setting[1])
		// One graph per point keeps a campaign short enough for about sixty
		// repetitions in a run, so its p95 does not rest on one slow
		// repetition.
		cfg.Granularities = []float64{0.6, 1.0, 1.6}
		cfg.GraphsPerPoint = 1
		if tiny {
			cfg.Granularities, cfg.GraphsPerPoint = []float64{1.0}, 1
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func cellCount(cfgs []experiments.Config) int {
	n := 0
	for _, cfg := range cfgs {
		n += len(cfg.Granularities) * cfg.GraphsPerPoint
	}
	return n
}

// runSweeps runs one campaign: every sweep through experiments.Run.
func runSweeps(ctx context.Context, cfgs []experiments.Config) ([][]experiments.Point, error) {
	out := make([][]experiments.Point, len(cfgs))
	for i, cfg := range cfgs {
		pts, err := experiments.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		out[i] = pts
	}
	return out, nil
}

// checkPoints holds every point to the paper's guarantee: it aggregates
// N > 0 cells, and its mean synchronous latency, with and without crashes,
// is within its mean bound (2S−1)Δ.
func checkPoints(sweeps [][]experiments.Point) error {
	const tol = 1e-9
	for si, pts := range sweeps {
		for _, pt := range pts {
			if pt.N <= 0 {
				return fmt.Errorf("sweep %d granularity %g aggregates no cell", si, pt.Granularity)
			}
			for _, c := range []struct {
				name       string
				lat, bound float64
			}{
				{"LTF", pt.LTFSync0, pt.LTFBound}, {"LTF with crashes", pt.LTFSyncC, pt.LTFBound},
				{"R-LTF", pt.RLTFSync0, pt.RLTFBound}, {"R-LTF with crashes", pt.RLTFSyncC, pt.RLTFBound},
				{"FF", pt.FFSync0, pt.FFBound},
			} {
				if !(c.lat <= c.bound*(1+tol)) {
					return fmt.Errorf("sweep %d granularity %g: %s mean latency %g exceeds its bound %g",
						si, pt.Granularity, c.name, c.lat, c.bound)
				}
			}
		}
	}
	return nil
}

// pointsKey renders sweeps exactly (%v prints the shortest float that
// round-trips, and NaN equals itself), for comparing repetitions.
func pointsKey(sweeps [][]experiments.Point) string { return fmt.Sprintf("%v", sweeps) }

func runCampaign(ctx context.Context, o options) (*report, error) {
	cfgs := campaignConfigs(o.tiny)
	cells := cellCount(cfgs)

	// Set-up: a warm-up campaign fills the campaign cell cache and gives
	// the reference points every timed repetition must equal.
	var (
		ref    [][]experiments.Point
		setups []float64
	)
	for k := 0; k < setupRepeats(o); k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		pts, err := runSweeps(ctx, cfgs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := checkPoints(pts); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if ref != nil && pointsKey(pts) != pointsKey(ref) {
			return nil, errors.New("set-up: warm-up campaigns disagree")
		}
		ref = pts
		setups = append(setups, time.Since(t0).Seconds())
	}
	refKey := pointsKey(ref)

	rep := &report{e2e: map[string]float64{}, layers: map[string]float64{}}
	dur := time.Duration(o.seconds * float64(time.Second))
	var lat []float64
	ph := beginPhase()
	clock := newPassClock(cells)
	for time.Since(ph.start) < dur {
		t0 := time.Now()
		pts, err := runSweeps(ctx, cfgs)
		if err != nil {
			return nil, err
		}
		lat = append(lat, msOf(time.Since(t0)))
		clock.add(cells)
		rep.attempted += int64(cells)
		if key := pointsKey(pts); key != refKey {
			rep.failed += int64(cells)
			rep.fail("repetition %d returned other points than the warm-up", len(lat))
		}
	}
	cost := ph.end()
	passes := clock.stats()

	var stages, weight, fails float64
	for _, pts := range ref {
		for _, pt := range pts {
			stages += float64(pt.N) * (pt.LTFStages + pt.RLTFStages)
			weight += 2 * float64(pt.N)
			fails += float64(pt.LTFFail + pt.RLTFFail + pt.FFFail)
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	ops := float64(rep.attempted)
	rep.latencySamples, rep.setups = len(lat), setups
	rep.e2e = map[string]float64{
		"setup_s":        stats.Median(setups),
		"latency_p50_ms": stats.Quantile(lat, 0.5),
		"latency_p95_ms": stats.Quantile(lat, 0.95),
		"throughput_rps": passes.opsPerSec,
		"campaign_s":     passes.seconds,
		"cpu_ms_per_op":  passes.cpuMsPerOp,
		"peak_rss_mb":    rss,
		"stages_mean":    ratio(stages, weight),
		"feasible_share": 1 - fails/float64(3*cells),
	}
	if !o.trace {
		return rep, nil
	}

	rep.layers = map[string]float64{
		"experiments.cpu_use":     cost.cpu / (cost.wall * float64(runtime.GOMAXPROCS(0))),
		"runtime.alloc_kb_per_op": cost.allocBytes / ops / 1024,
		"runtime.allocs_per_op":   cost.allocs / ops,
		"runtime.gc_cpu_share":    cost.gcCPUShare,
	}
	tracedCPU, err := replayCampaign(ctx, cfgs, ref, rep)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	rep.layers["trace.overhead_share"] = tracedCPU/(cost.cpu/ops) - 1
	return rep, nil
}

// cellInput is one (granularity, replicate) cell of a sweep.
type cellInput struct {
	gi      int
	g       *dag.Graph
	p       *platform.Platform
	crashed []platform.ProcID
}

// drawCell generates cell (gi, rep) exactly as experiments.Run does: the
// seed derivation and the rng consumption order (platform, graph, crash
// sample) are its reproducibility contract, so the replay schedules and
// simulates the same inputs as the timed campaign.
func drawCell(cfg experiments.Config, gi, rep int, gran float64) cellInput {
	r := rng.New(cfg.Seed ^ uint64(gi)<<32 ^ uint64(rep)<<8 ^ uint64(cfg.Eps))
	p := platform.RandomHeterogeneous(r, cfg.Procs, 0.5, 1.0, 0.5, 1.0, 100)
	gcfg := randgraph.DefaultStreamConfig()
	if cfg.ComputeFraction > 0 {
		gcfg.ComputeFraction = cfg.ComputeFraction
	}
	gcfg.Granularity = gran
	gcfg.PeriodBase = cfg.PeriodBase
	c := cellInput{gi: gi, p: p, g: randgraph.Stream(r, gcfg, p)}
	if cfg.Crashes > 0 {
		for _, u := range r.Sample(cfg.Procs, cfg.Crashes) {
			c.crashed = append(c.crashed, platform.ProcID(u))
		}
	}
	return c
}

// cellResult is one cell's measurements, in experiments.Run's terms.
type cellResult struct {
	ok                           bool
	ltfBound, rltfBound, ffBound float64
	ltfStages, rltfStages        float64
	ltfSync0, rltfSync0, ffSync0 float64
	ltfSyncC, rltfSyncC          float64
	ltfSim0, rltfSim0, ffSim0    float64
	ltfSimC, rltfSimC            float64
}

// simJob is one schedule's scenarios on one engine, as experiments.Run
// shards its simulation phase.
type simJob struct {
	s     *schedule.Schedule
	scens []simScenario
}

type simScenario struct {
	out     *float64
	crashed []platform.ProcID
	sync    bool
}

// campaignTally sums the replay's per-layer times and counts.
type campaignTally struct {
	solverCounters
	genMs, batchMs, simMs, solves    float64
	engineMs, dataflowMs, syncMs     float64
	engines, dataflows, syncs, wakes float64
	mu                               sync.Mutex // guards the sim fields during the fan-out
}

// replayCampaign replays one campaign layer by layer: cell generation,
// one core.Batch.Solve per sweep (with an obs trace, so the solver's own
// ltf/rltf spans report their time and counters), then sim.NewEngine and
// Engine.Run per scenario fanned across GOMAXPROCS workers, as
// experiments.Run does. It checks that its per-point bounds, stage counts
// and simulated latencies equal ref, so it breaks down the same work, and
// returns its CPU seconds per cell.
func replayCampaign(ctx context.Context, cfgs []experiments.Config, ref [][]experiments.Point, rep *report) (float64, error) {
	obs.Enable()
	defer obs.Disable()
	log := newSpanLog()
	rep.spans = log
	t := &campaignTally{}
	workers := runtime.GOMAXPROCS(0)

	ph := beginPhase()
	root := log.begin("campaign", "replay", 0, -1)
	for si, cfg := range cfgs {
		sweep := log.begin("sweep", "replay", si, root)
		var cells []cellInput
		for gi, gran := range cfg.Granularities {
			for r := 0; r < cfg.GraphsPerPoint; r++ {
				t.genMs += log.timed("randgraph.cell", "replay", len(cells), sweep, func() {
					cells = append(cells, drawCell(cfg, gi, r, gran))
				})
			}
		}

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
		tr := obs.NewTrace("core.batch")
		var solved []core.Result
		t.batchMs += log.timed("core.batch", "replay", si, sweep, func() {
			solved = (&core.Batch{Workers: workers}).Solve(obs.ContextWith(ctx, tr.Root()), reqs)
		})
		tr.Finish(0)
		t.add(tr)
		t.solves += float64(len(reqs))

		results := make([]cellResult, len(cells))
		var jobs []simJob
		for i, c := range cells {
			ff, ls, rs := solved[3*i], solved[3*i+1], solved[3*i+2]
			failed := false
			for _, r := range []core.Result{ff, ls, rs} {
				if r.Err != nil && !errors.Is(r.Err, core.ErrInfeasible) {
					return 0, r.Err
				}
				failed = failed || r.Err != nil
			}
			if !failed {
				jobs = append(jobs, cellJobs(&results[i], c, ff.Schedule, ls.Schedule, rs.Schedule)...)
			}
		}
		var simErr error
		t.simMs += log.timed("sim", "replay", si, sweep, func() { simErr = runJobs(ctx, log, t, jobs, workers, sweep) })
		if simErr != nil {
			return 0, simErr
		}
		log.end(sweep)
		if err := compareReplay(cfg, cells, results, ref[si]); err != nil {
			rep.fail("sweep %d: %v", si, err)
		}
	}
	totalMs := log.end(root)
	cost := ph.end()

	cells := float64(cellCount(cfgs))
	simShare, solveShare := t.simMs/totalMs, t.batchMs/totalMs
	t.report(rep.layers, t.solves, t.spanMs)
	for k, v := range map[string]float64{
		"core.solve_ms":           ratio(t.spanMs, t.solves),
		"core.batch_s":            t.batchMs / 1000,
		"sim.engine_ms":           ratio(t.engineMs, t.engines),
		"sim.dataflow_ms":         ratio(t.dataflowMs, t.dataflows),
		"sim.sync_ms":             ratio(t.syncMs, t.syncs),
		"sim.wakes_per_run":       ratio(t.wakes, t.syncs),
		"randgraph.cell_ms":       t.genMs / cells,
		"experiments.sim_share":   simShare,
		"experiments.solve_share": solveShare,
		"experiments.other_share": 1 - simShare - solveShare,
	} {
		rep.layers[k] = v
	}
	return cost.cpu / cells, nil
}

// cellJobs returns one surviving cell's simulation work, as
// experiments.Run builds it: per schedule a dataflow and a synchronous
// run, plus both again with the cell's crashes for the replicated ones.
func cellJobs(res *cellResult, c cellInput, ff, ls, rs *schedule.Schedule) []simJob {
	res.ok = true
	res.ltfBound, res.rltfBound, res.ffBound = ls.LatencyBound(), rs.LatencyBound(), ff.LatencyBound()
	res.ltfStages, res.rltfStages = float64(ls.Stages()), float64(rs.Stages())
	ffJob := simJob{ff, []simScenario{{&res.ffSim0, nil, false}, {&res.ffSync0, nil, true}}}
	lsJob := simJob{ls, []simScenario{{&res.ltfSim0, nil, false}, {&res.ltfSync0, nil, true}}}
	rsJob := simJob{rs, []simScenario{{&res.rltfSim0, nil, false}, {&res.rltfSync0, nil, true}}}
	if len(c.crashed) > 0 {
		lsJob.scens = append(lsJob.scens, simScenario{&res.ltfSimC, c.crashed, false}, simScenario{&res.ltfSyncC, c.crashed, true})
		rsJob.scens = append(rsJob.scens, simScenario{&res.rltfSimC, c.crashed, false}, simScenario{&res.rltfSyncC, c.crashed, true})
	}
	return []simJob{ffJob, lsJob, rsJob}
}

// runJobs fans the simulation jobs across workers goroutines, timing
// sim.NewEngine and every Engine.Run as spans.
func runJobs(ctx context.Context, log *spanLog, t *campaignTally, jobs []simJob, workers, parent int) error {
	idx := make(chan int)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane string) {
			defer wg.Done()
			for j := range idx {
				errs[j] = runJob(ctx, log, t, jobs[j], lane, j, parent)
			}
		}("worker-" + strconv.Itoa(w))
	}
	for j := range jobs {
		idx <- j
	}
	close(idx)
	wg.Wait()
	return errors.Join(errs...)
}

func runJob(ctx context.Context, log *spanLog, t *campaignTally, job simJob, lane string, id, parent int) error {
	var (
		eng *sim.Engine
		err error
	)
	ms := log.timed("sim.engine", lane, id, parent, func() { eng, err = sim.NewEngine(job.s) })
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.engineMs += ms
	t.engines++
	t.mu.Unlock()
	for _, sc := range job.scens {
		cfg := sim.DefaultConfig(job.s)
		cfg.Synchronous = sc.sync
		name := "sim.dataflow"
		if sc.sync {
			st := job.s.Stages()
			cfg.Items, cfg.Warmup = 2*st+20, st+5
			name = "sim.sync"
		}
		if len(sc.crashed) > 0 {
			cfg.Failures = sim.FailureSpec{Procs: sc.crashed}
		}
		var res *sim.Result
		ms := log.timed(name, lane, id, parent, func() { res, err = eng.Run(ctx, cfg) })
		if err != nil {
			return err
		}
		*sc.out = res.MeanLatency
		t.mu.Lock()
		if sc.sync {
			t.syncMs += ms
			t.syncs++
			t.wakes += float64(eng.Wakes())
		} else {
			t.dataflowMs += ms
			t.dataflows++
		}
		t.mu.Unlock()
	}
	return nil
}

// compareReplay aggregates the replay per point as experiments.Run does
// and requires the same cell count, mean bounds, mean stage counts and
// mean simulated latencies as the timed campaign's points.
func compareReplay(cfg experiments.Config, cells []cellInput, results []cellResult, ref []experiments.Point) error {
	for gi := range cfg.Granularities {
		var n int
		var lb, rb, fb, ls, rs, l0, r0, f0, lc, rc, d0, e0, g0, dc, ec []float64
		for i, c := range cells {
			r := results[i]
			if c.gi != gi || !r.ok {
				continue
			}
			n++
			lb, rb, fb = append(lb, r.ltfBound), append(rb, r.rltfBound), append(fb, r.ffBound)
			ls, rs = append(ls, r.ltfStages), append(rs, r.rltfStages)
			l0, r0, f0 = append(l0, r.ltfSync0), append(r0, r.rltfSync0), append(f0, r.ffSync0)
			d0, e0, g0 = append(d0, r.ltfSim0), append(e0, r.rltfSim0), append(g0, r.ffSim0)
			if r.ltfSyncC > 0 {
				lc, rc = append(lc, r.ltfSyncC), append(rc, r.rltfSyncC)
				dc, ec = append(dc, r.ltfSimC), append(ec, r.rltfSimC)
			}
		}
		pt := ref[gi]
		mean := stats.Mean
		got := fmt.Sprint(n, mean(lb), mean(rb), mean(fb), mean(ls), mean(rs), mean(l0), mean(r0), mean(f0),
			mean(lc), mean(rc), mean(d0), mean(e0), mean(g0), mean(dc), mean(ec))
		want := fmt.Sprint(pt.N, pt.LTFBound, pt.RLTFBound, pt.FFBound, pt.LTFStages, pt.RLTFStages,
			pt.LTFSync0, pt.RLTFSync0, pt.FFSync0, pt.LTFSyncC, pt.RLTFSyncC,
			pt.LTFSim0, pt.RLTFSim0, pt.FFSim0, pt.LTFSimC, pt.RLTFSimC)
		if got != want {
			return fmt.Errorf("granularity %g: replay aggregates to %s, experiments.Run to %s", pt.Granularity, got, want)
		}
	}
	return nil
}
