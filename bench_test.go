package streamsched_test

// One benchmark per paper table/figure (DESIGN.md §4 maps them), plus the
// ablation benches for the design choices DESIGN.md calls out, plus
// algorithm micro-benchmarks. Figure sweeps run at reduced sample counts to
// stay benchmark-sized; cmd/paperfig regenerates the full 60-graph curves.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"streamsched"
	"streamsched/internal/experiments"
	"streamsched/internal/ltf"
	"streamsched/internal/obs"
	"streamsched/internal/oneport"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/rltf"
	"streamsched/internal/rng"
	"streamsched/internal/service"
	"streamsched/internal/sim"
	"streamsched/internal/timeline"
)

// benchSweep runs a reduced paper sweep.
func benchSweep(b *testing.B, eps, crashes int, fig experiments.Figure) {
	cfg := experiments.DefaultConfig(eps, crashes)
	cfg.GraphsPerPoint = 3
	cfg.Granularities = []float64{0.6, 1.0, 1.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, rows := experiments.Series(pts, fig)
		if len(rows) != len(cfg.Granularities) {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkFig1 regenerates the Figure 1 scenario comparison (E1).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if r.PipeStages != 2 {
			b.Fatalf("pipelined stages = %d", r.PipeStages)
		}
	}
}

// BenchmarkFig2 regenerates the §4.3 worked-example grid (E2).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if r.Best("R-LTF") == nil {
			b.Fatal("R-LTF infeasible everywhere")
		}
	}
}

// BenchmarkFig3a/b/c: ε=1 latency bounds, crash latencies, overheads (E3-E5).
func BenchmarkFig3a(b *testing.B) { benchSweep(b, 1, 1, experiments.FigBounds) }
func BenchmarkFig3b(b *testing.B) { benchSweep(b, 1, 1, experiments.FigCrash) }
func BenchmarkFig3c(b *testing.B) { benchSweep(b, 1, 1, experiments.FigOverhead) }

// BenchmarkFig4a/b/c: the ε=3 family (E6-E8).
func BenchmarkFig4a(b *testing.B) { benchSweep(b, 3, 2, experiments.FigBounds) }
func BenchmarkFig4b(b *testing.B) { benchSweep(b, 3, 2, experiments.FigCrash) }
func BenchmarkFig4c(b *testing.B) { benchSweep(b, 3, 2, experiments.FigOverhead) }

// BenchmarkRelatedWork regenerates the extended related-work comparison
// table (R-LTF vs ETF/HEFT/clustering at ε=0).
func BenchmarkRelatedWork(b *testing.B) {
	cfg := experiments.DefaultConfig(0, 0)
	cfg.GraphsPerPoint = 3
	cfg.Granularities = []float64{0.8, 1.6}
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RelatedWork(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 2 {
			b.Fatal("bad points")
		}
	}
}

// BenchmarkAblationOneToOne compares the one-to-one mapping against full
// communication replication on an aggregation tree (E9, the §4.2 claim).
func BenchmarkAblationOneToOne(b *testing.B) {
	g := randgraph.InTree(4, 1, 1)
	p := platform.Homogeneous(16, 1, 1)
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"one-to-one", false},
		{"full-replication", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			comms := 0
			for i := 0; i < b.N; i++ {
				s, err := rltf.Schedule(context.Background(), g, p, 1, 1000, rltf.Options{DisableOneToOne: mode.disable})
				if err != nil {
					b.Fatal(err)
				}
				comms = s.TotalComms()
			}
			b.ReportMetric(float64(comms), "comms")
		})
	}
}

// BenchmarkAblationChunk measures LTF's iso-level chunking against plain
// one-task list scheduling (E10).
func BenchmarkAblationChunk(b *testing.B) {
	r := rng.New(7)
	p := platform.RandomHeterogeneous(r, 20, 0.5, 1, 0.5, 1, 100)
	cfg := randgraph.DefaultStreamConfig()
	cfg.Granularity = 1.0
	g := randgraph.Stream(r, cfg, p)
	for _, chunk := range []int{1, 20} {
		b.Run(fmt.Sprintf("B=%d", chunk), func(b *testing.B) {
			stages := 0
			for i := 0; i < b.N; i++ {
				s, err := ltf.Schedule(context.Background(), g, p, 1, 20, ltf.Options{ChunkSize: chunk})
				if err != nil {
					b.Skip("infeasible at this chunk size")
				}
				stages = s.Stages()
			}
			b.ReportMetric(float64(stages), "stages")
		})
	}
}

// workUnits maps each mapper.PhaseCounters span argument to the per-op
// unit the bench gate pins exactly.
var workUnits = [...]struct{ arg, unit string }{
	{"trials", "trials/op"},
	{"pruned", "pruned/op"},
	{"placements", "placements/op"},
	{"rollbacks", "rollbacks/op"},
	{"fallbacks", "fallbacks/op"},
}

// solverWork is the placement work of one solve or replan, by gate unit.
type solverWork map[string]float64

// tracedWork runs solve once under a trace and sums the phase counters
// that its ltf, rltf or repair spans carry (the span arguments perfbench
// reads too). The counts are deterministic, so one run gives the per-op
// value. Call it before b.ResetTimer, which discards the traced run's time
// and allocations, and report the result after the loop, since ResetTimer
// also drops reported metrics.
func tracedWork(solve func(context.Context) error) (solverWork, error) {
	obs.Enable()
	defer obs.Disable()
	tr := obs.NewTrace("bench")
	if err := solve(obs.ContextWith(context.Background(), tr.Root())); err != nil {
		return nil, err
	}
	tr.Finish(0)
	w := solverWork{}
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name != "ltf" && sp.Name != "rltf" && sp.Name != "repair" {
			continue
		}
		for _, u := range workUnits {
			if v, ok := sp.Args[u.arg].(int64); ok {
				w[u.unit] += float64(v)
			}
		}
	}
	return w, nil
}

// report attaches the work counts to the benchmark result.
func (w solverWork) report(b *testing.B) {
	for unit, v := range w {
		b.ReportMetric(v, unit)
	}
}

// BenchmarkLTF and BenchmarkRLTF measure scheduling cost on paper-sized
// instances (v ∈ [50,150], m = 20), with the placement work as per-op
// counts.
func BenchmarkLTF(b *testing.B) {
	for _, eps := range []int{1, 3} {
		b.Run(fmt.Sprintf("eps=%d", eps), func(b *testing.B) {
			r := rng.New(11)
			p := platform.RandomHeterogeneous(r, 20, 0.5, 1, 0.5, 1, 100)
			cfg := randgraph.DefaultStreamConfig()
			g := randgraph.Stream(r, cfg, p)
			solve := func(ctx context.Context) error {
				_, err := ltf.Schedule(ctx, g, p, eps, 10*float64(eps+1), ltf.Options{})
				return err
			}
			work, err := tracedWork(solve)
			if err != nil {
				b.Skip("infeasible instance")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := solve(context.Background()); err != nil {
					b.Skip("infeasible instance")
				}
			}
			work.report(b)
		})
	}
}

// benchLTFSchedule is BenchmarkLTF's ε=1 schedule (a paper-sized random
// stream graph on 20 heterogeneous processors) with a solver of the same
// configuration.
func benchLTFSchedule(b *testing.B) (*streamsched.Schedule, *streamsched.Solver) {
	b.Helper()
	r := rng.New(11)
	p := platform.RandomHeterogeneous(r, 20, 0.5, 1, 0.5, 1, 100)
	g := randgraph.Stream(r, randgraph.DefaultStreamConfig(), p)
	s, err := ltf.Schedule(context.Background(), g, p, 1, 20, ltf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	solver, err := streamsched.NewSolver(
		streamsched.WithAlgorithm(streamsched.LTF),
		streamsched.WithEps(1),
		streamsched.WithPeriod(20),
	)
	if err != nil {
		b.Fatal(err)
	}
	return s, solver
}

// BenchmarkScheduleJSON measures the interchange rendering a service miss
// pays once per schedule: MarshalJSON of BenchmarkLTF's ε=1 schedule, one
// stage pass and one direct append into a pooled buffer. Part of the CI
// perf gate.
func BenchmarkScheduleJSON(b *testing.B) {
	s, _ := benchLTFSchedule(b)
	// One untimed render refills MarshalJSON's buffer pool, which the GC
	// before every run can empty: without it, allocs/op at the gate's 5x
	// moves with the GC's timing.
	if _, err := s.MarshalJSON(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadJSON measures the rebuild a /v1/replan request and every
// /v1/simulate cache hit pay: LoadJSON of BenchmarkScheduleJSON's bytes
// against the schedule's graph and platform. Part of the CI perf gate.
func BenchmarkLoadJSON(b *testing.B) {
	s, _ := benchLTFSchedule(b)
	data, err := s.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := streamsched.LoadScheduleJSON(data, s.G, s.P); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplanHash measures the cache key of a /v1/replan request over
// the same schedule with a lost processor: the problem hash plus the
// committed schedule's structure, hashed as decoded. Part of the CI perf
// gate.
func BenchmarkReplanHash(b *testing.B) {
	s, solver := benchLTFSchedule(b)
	spec := service.ReplanSpec{Old: s, Solver: solver, Delta: streamsched.PlatformDelta{Lost: []streamsched.ProcID{3}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := service.ReplanHash(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLTFLookahead records the speculative-lookahead quality/cost
// points: for each window size k, the construction cost (ns/op) plus the
// resulting schedule's stage count and latency bound and the placement work
// as custom metrics. k=1 is the plain loop; k>1 scores per-window candidate
// strategies under a window transaction and keeps the best. Part of the CI
// perf gate.
func BenchmarkLTFLookahead(b *testing.B) {
	for _, algo := range []string{"ltf", "rltf"} {
		for _, k := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/k=%d", algo, k), func(b *testing.B) {
				r := rng.New(11)
				p := platform.RandomHeterogeneous(r, 20, 0.5, 1, 0.5, 1, 100)
				cfg := randgraph.DefaultStreamConfig()
				g := randgraph.Stream(r, cfg, p)
				var s *streamsched.Schedule
				solve := func(ctx context.Context) (err error) {
					if algo == "ltf" {
						s, err = ltf.Schedule(ctx, g, p, 1, 20, ltf.Options{Lookahead: k})
					} else {
						s, err = rltf.Schedule(ctx, g, p, 1, 20, rltf.Options{Lookahead: k})
					}
					return err
				}
				work, err := tracedWork(solve)
				if err != nil {
					b.Skip("infeasible instance")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := solve(context.Background()); err != nil {
						b.Skip("infeasible instance")
					}
				}
				b.ReportMetric(float64(s.Stages()), "stages")
				b.ReportMetric(s.LatencyBound(), "latency")
				work.report(b)
			})
		}
	}
}

func BenchmarkRLTF(b *testing.B) {
	for _, eps := range []int{1, 3} {
		b.Run(fmt.Sprintf("eps=%d", eps), func(b *testing.B) {
			r := rng.New(11)
			p := platform.RandomHeterogeneous(r, 20, 0.5, 1, 0.5, 1, 100)
			cfg := randgraph.DefaultStreamConfig()
			g := randgraph.Stream(r, cfg, p)
			solve := func(ctx context.Context) error {
				_, err := rltf.Schedule(ctx, g, p, eps, 10*float64(eps+1), rltf.Options{})
				return err
			}
			work, err := tracedWork(solve)
			if err != nil {
				b.Skip("infeasible instance")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := solve(context.Background()); err != nil {
					b.Skip("infeasible instance")
				}
			}
			work.report(b)
		})
	}
}

// BenchmarkSim measures the discrete-event engine across the axes the
// experiment campaigns exercise: small structured vs paper-sized random
// graphs, free-running dataflow vs stage-synchronized semantics, with and
// without a tolerated crash, plus the Fig. 4 golden cell (ε=3, two crashes),
// where port contention is steady. These cases are part of the recorded
// baseline and the CI perf gate (see Makefile BENCH_RE).
func BenchmarkSim(b *testing.B) {
	small, err := ltf.Schedule(context.Background(), randgraph.Butterfly(3, 3, 1),
		platform.Homogeneous(10, 1, 1), 1, 30, ltf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(13)
	p := platform.RandomHeterogeneous(r, 20, 0.5, 1, 0.5, 1, 100)
	large, err := rltf.Schedule(context.Background(), randgraph.Stream(r, randgraph.DefaultStreamConfig(), p), p, 1, 20, rltf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	type simCase struct {
		name  string
		s     *streamsched.Schedule
		sync  bool
		procs []platform.ProcID
	}
	var cases []simCase
	for _, size := range []struct {
		name string
		s    *streamsched.Schedule
	}{{"small", small}, {"large", large}} {
		for _, mode := range []struct {
			name string
			sync bool
		}{{"dataflow", false}, {"synchronous", true}} {
			cases = append(cases,
				simCase{size.name + "/" + mode.name + "/nocrash", size.s, mode.sync, nil},
				simCase{size.name + "/" + mode.name + "/crash", size.s, mode.sync, []platform.ProcID{0}})
		}
	}
	fig4 := simGoldenFig4(b)
	cases = append(cases,
		simCase{"fig4/dataflow/crash2", fig4, false, simFig4Crash},
		simCase{"fig4/synchronous/crash2", fig4, true, simFig4Crash})
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			c := sim.DefaultConfig(tc.s)
			c.Synchronous = tc.sync
			if tc.procs != nil {
				c.Failures = sim.FailureSpec{Procs: tc.procs}
			}
			eng, err := sim.NewEngine(tc.s)
			if err != nil {
				b.Fatal(err)
			}
			var wakes, events int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), c); err != nil {
					b.Fatal(err)
				}
				wakes += eng.Wakes()
				events += eng.Events()
			}
			// Event-count regressions (a wake push per gated instance
			// instead of per cycle, a transfer granted at another time)
			// hide inside ns/op noise; the gate reds on wakes/op and
			// events/op growth directly.
			b.ReportMetric(float64(wakes)/float64(b.N), "wakes/op")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

// BenchmarkTimelineReserve measures sorted-interval insertion as one port's
// timeline grows — the ROADMAP question of whether the memmove-based sorted
// slice holds up beyond ~10³ reservations per port. One op builds a
// timeline of n disjoint intervals reserved in permuted order, so
// insertions land mid-slice rather than appending.
func BenchmarkTimelineReserve(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ivs := make([]timeline.Interval, n)
			for i, p := range rng.New(19).Perm(n) {
				ivs[i] = timeline.Interval{Start: 2 * float64(p), End: 2*float64(p) + 1}
			}
			var tl timeline.Timeline
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tl.Reset()
				for _, iv := range ivs {
					tl.MustReserve(iv)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/reserve")
		})
	}
}

// populateSystem commits n random reservations onto a fresh m-processor
// one-port system — the committed-state backdrop for the transactional
// rollback benchmark.
func populateSystem(m, n int) *oneport.System {
	r := rng.New(29)
	p := platform.RandomHeterogeneous(r, m, 0.5, 1, 0.5, 1, 100)
	s := oneport.NewSystem(p)
	for i := 0; i < n; i++ {
		if r.Bool(0.4) {
			s.Compute(platform.ProcID(r.IntN(m)), r.Uniform(0.1, 2), r.Uniform(0, 50))
		} else {
			s.Transfer(platform.ProcID(r.IntN(m)), platform.ProcID(r.IntN(m)),
				r.Uniform(1, 40), r.Uniform(0, 50))
		}
	}
	return s
}

// BenchmarkTxnRollback measures a journaled rollback on a committed
// backdrop: one op takes a rollback mark, reserves two replicas' worth of
// transfers and computes (two transfers and a compute each, the
// reverse-mode retry shape), and rolls them back — O(changes), not
// O(total reservations).
func BenchmarkTxnRollback(b *testing.B) {
	s := populateSystem(20, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mark := s.Mark()
		for rep := 0; rep < 2; rep++ {
			s.Transfer(1, 5, 30, 10)
			s.Transfer(2, 5, 20, 15)
			s.Compute(5, 1.5, 20)
		}
		s.Rollback(mark)
	}
}

// BenchmarkValidate measures the full audit including the exhaustive
// ε-failure enumeration.
func BenchmarkValidate(b *testing.B) {
	g := streamsched.Fig2Graph()
	p := platform.Homogeneous(10, 1, 1)
	s, err := ltf.Schedule(context.Background(), g, p, 1, 20, ltf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinPeriod measures the binary-search period minimizer.
func BenchmarkMinPeriod(b *testing.B) {
	g := randgraph.Butterfly(3, 3, 1)
	p := platform.Homogeneous(12, 1, 2)
	for i := 0; i < b.N; i++ {
		if _, _, err := streamsched.MinPeriod(context.Background(), g, p, 1, streamsched.RLTF, 1e-2); err != nil {
			b.Fatal(err)
		}
	}
}

// replanBench pins one (instance size × delta kind) repair scenario shared
// by BenchmarkReplan and BenchmarkReplanCold, so the two benchmarks form a
// true differential: same committed schedule, same post-delta platform.
type replanBench struct {
	name  string
	old   *streamsched.Schedule
	p     *streamsched.Platform
	delta streamsched.PlatformDelta
}

// replanBenchCases builds the small (m=8) and large (m=20, paper-sized
// stream graph) instances under forward LTF, each with a single-processor
// loss and a speed-degrade delta.
func replanBenchCases(b *testing.B) ([]replanBench, *streamsched.Solver) {
	b.Helper()
	solver, err := streamsched.NewSolver(
		streamsched.WithAlgorithm(streamsched.LTF),
		streamsched.WithEps(1),
		streamsched.WithPeriod(40),
	)
	if err != nil {
		b.Fatal(err)
	}
	var cases []replanBench
	for _, size := range []struct {
		name string
		m    int
	}{{"small", 8}, {"large", 20}} {
		r := rng.New(11)
		p := platform.RandomHeterogeneous(r, size.m, 0.5, 1, 0.5, 1, 100)
		g := randgraph.Stream(r, randgraph.DefaultStreamConfig(), p)
		old, err := solver.Solve(context.Background(), g, p)
		if err != nil {
			b.Fatalf("%s: committed solve: %v", size.name, err)
		}
		cases = append(cases,
			replanBench{size.name + "/lostproc", old, p,
				streamsched.PlatformDelta{Lost: []streamsched.ProcID{3}}},
			replanBench{size.name + "/degrade", old, p,
				streamsched.PlatformDelta{Speed: []streamsched.ProcSpeedChange{{Proc: 0, Speed: p.Speed(0) * 0.5}}}},
		)
	}
	return cases, solver
}

// BenchmarkReplan measures incremental repair: replay the surviving
// placement, journal-unwind and re-place only the evicted tasks. The
// differential claim — repair beats the cold re-solve on small deltas,
// in particular single-processor loss on the paper-sized instance — is
// checked against BenchmarkReplanCold in the recorded baseline (Makefile
// BENCH_RE; both are part of the CI perf gate).
func BenchmarkReplan(b *testing.B) {
	cases, solver := replanBenchCases(b)
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			replan := func(ctx context.Context) error {
				res, err := solver.Replan(ctx, tc.old, tc.delta)
				if err != nil {
					return err
				}
				if res.Stats.ColdSolve {
					return fmt.Errorf("repair fell back to a cold solve; the benchmark measures incremental repair")
				}
				return nil
			}
			work, err := tracedWork(replan)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := replan(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			work.report(b)
		})
	}
}

// BenchmarkReplanCold measures the alternative repair refuses to default
// to: a full re-solve of the same instance on the same post-delta
// platform.
func BenchmarkReplanCold(b *testing.B) {
	cases, solver := replanBenchCases(b)
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			newP, _, err := tc.delta.Apply(tc.p)
			if err != nil {
				b.Fatal(err)
			}
			solve := func(ctx context.Context) error {
				_, err := solver.Solve(ctx, tc.old.G, newP)
				return err
			}
			work, err := tracedWork(solve)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := solve(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			work.report(b)
		})
	}
}

// BenchmarkServiceSolveCached measures the scheduling service's steady
// state: one cached /v1/solve request — decode, build, canonical hash,
// LRU hit, pre-rendered response — through the real handler stack
// (httptest request/recorder; no socket jitter, so the pinned numbers are
// stable at the gate's short benchtime). This is the per-request CPU cost
// a warm streamschedd pays for repeat traffic; it is part of the recorded
// baseline and the CI perf gate (Makefile BENCH_RE).
func BenchmarkServiceSolveCached(b *testing.B) {
	srv := streamsched.NewService(streamsched.ServiceConfig{})
	handler := srv.Handler()
	payload, err := json.Marshal(streamsched.WireSolveRequest{
		Graph:    streamsched.NewWireGraph(streamsched.Fig2Graph()),
		Platform: streamsched.NewWirePlatform(platform.Homogeneous(6, 1, 10)),
		Options:  streamsched.WireOptions{Eps: 1, Period: 40},
	})
	if err != nil {
		b.Fatal(err)
	}
	post := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(); code != http.StatusOK { // warm the cache
		b.Fatalf("warm-up solve: HTTP %d", code)
	}
	// One op = reqsPerOp requests, so the pinned ns/op averages enough
	// requests to be stable at the gate's short benchtime.
	const reqsPerOp = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < reqsPerOp; j++ {
			if code := post(); code != http.StatusOK {
				b.Fatalf("cached solve: HTTP %d", code)
			}
		}
	}
	b.StopTimer()
	m := srv.Metrics()
	if m.SolveCalls != 1 {
		b.Fatalf("cache failed: %d solver calls for %d requests", m.SolveCalls, b.N*reqsPerOp+1)
	}
}

// BenchmarkServiceSimulateCached measures a warm /v1/simulate request: the
// problem (BenchmarkLTF's ε=1 instance, 20 processors) is a cache hit, so
// one op is the request's decode, hash and LRU hit, the rebuild of the
// schedule from the cached bytes, and a sweep of two 8-item scenarios
// (dataflow and synchronous) on one engine. Part of the CI perf gate
// (Makefile BENCH_RE); defined before BenchmarkServiceSolveTraced, which
// arms tracing for the rest of the process.
func BenchmarkServiceSimulateCached(b *testing.B) {
	r := rng.New(11)
	p := platform.RandomHeterogeneous(r, 20, 0.5, 1, 0.5, 1, 100)
	g := randgraph.Stream(r, randgraph.DefaultStreamConfig(), p)
	srv := streamsched.NewService(streamsched.ServiceConfig{})
	handler := srv.Handler()
	payload, err := json.Marshal(streamsched.WireSimulateRequest{
		Graph:    streamsched.NewWireGraph(g),
		Platform: streamsched.NewWirePlatform(p),
		Options:  streamsched.WireOptions{Algorithm: "ltf", Eps: 1, Period: 20},
		Scenarios: []streamsched.WireScenario{
			{Name: "dataflow", Items: 8},
			{Name: "synchronous", Items: 8, Synchronous: true},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	post := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(); code != http.StatusOK { // warm the cache
		b.Fatalf("warm-up simulate: HTTP %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := post(); code != http.StatusOK {
			b.Fatalf("cached simulate: HTTP %d", code)
		}
	}
	b.StopTimer()
	m := srv.Metrics()
	if m.SolveCalls != 1 {
		b.Fatalf("cache failed: %d solver calls for %d requests", m.SolveCalls, b.N+1)
	}
	if want := int64(2 * (b.N + 1)); m.SimRuns != want {
		b.Fatalf("%d simulation runs for %d requests, want %d", m.SimRuns, b.N+1, want)
	}
}

// BenchmarkServiceSolveTraced is BenchmarkServiceSolveCached with
// per-request tracing enabled: the same cached request now opens a trace,
// threads spans through hash/cache/render, feeds the stage latency rings
// and lands in the /debug/traces ring. The delta against Cached is the
// whole observability tax (DESIGN.md §12). Defined after Cached on
// purpose: benchmarks run in definition order and obs arming is
// process-global and monotone, so the disabled-path bench must run first.
func BenchmarkServiceSolveTraced(b *testing.B) {
	srv := streamsched.NewService(streamsched.ServiceConfig{Tracing: true})
	handler := srv.Handler()
	payload, err := json.Marshal(streamsched.WireSolveRequest{
		Graph:    streamsched.NewWireGraph(streamsched.Fig2Graph()),
		Platform: streamsched.NewWirePlatform(platform.Homogeneous(6, 1, 10)),
		Options:  streamsched.WireOptions{Eps: 1, Period: 40},
	})
	if err != nil {
		b.Fatal(err)
	}
	post := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Header().Get("X-Trace-Id") == "" {
			b.Fatal("traced response without X-Trace-Id")
		}
		return rec.Code
	}
	if code := post(); code != http.StatusOK { // warm the cache
		b.Fatalf("warm-up solve: HTTP %d", code)
	}
	const reqsPerOp = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < reqsPerOp; j++ {
			if code := post(); code != http.StatusOK {
				b.Fatalf("cached solve: HTTP %d", code)
			}
		}
	}
}
