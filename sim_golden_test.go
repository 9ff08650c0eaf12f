package streamsched_test

// Differential golden coverage for the discrete-event simulator. The files
// testdata/golden/sim_*.json were generated by the pre-refactor engine (map
// keyed instance store, pointer event heap, full-rescan dispatch); the
// flat engine must reproduce every Result byte for byte — latencies, delivery
// counts, achieved period and trace spans, across both execution semantics
// and all crash shapes. Regenerate with
//
//	go test -run TestGoldenSimResults -update-golden .
//
// only when an intentional semantic change lands — never to paper over an
// equivalence break.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"streamsched/internal/dag"
	"streamsched/internal/ltf"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/rltf"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
	"streamsched/internal/sim"
	"streamsched/internal/trace"
)

// simGolden is the serialized form of a sim.Result. Float64 fields are
// rendered with strconv.FormatFloat(g, -1) so the encoding is exact (every
// distinct float64 has a distinct string) and NaN — legal for MeanLatency
// when nothing is delivered — survives JSON.
type simGolden struct {
	Latencies      []string     `json:"latencies"`
	MeanLatency    string       `json:"meanLatency"`
	MaxLatency     string       `json:"maxLatency"`
	AchievedPeriod string       `json:"achievedPeriod"`
	Delivered      int          `json:"delivered"`
	Items          int          `json:"items"`
	Trace          []trace.Span `json:"trace,omitempty"`
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func toGolden(r *sim.Result) simGolden {
	g := simGolden{
		Latencies:      make([]string, 0, len(r.Latencies)),
		MeanLatency:    fmtFloat(r.MeanLatency),
		MaxLatency:     fmtFloat(r.MaxLatency),
		AchievedPeriod: fmtFloat(r.AchievedPeriod),
		Delivered:      r.Delivered,
		Items:          r.Items,
		Trace:          r.Trace,
	}
	for _, l := range r.Latencies {
		g.Latencies = append(g.Latencies, fmtFloat(l))
	}
	return g
}

// simGoldenSchedules builds the two deterministic schedule families used by
// the scenarios: the structured homogeneous butterfly under LTF and the
// paper-style heterogeneous random stream under R-LTF (the same instances as
// the scheduling goldens).
func simGoldenSchedules(t *testing.T, eps int) (butterfly, stream *schedule.Schedule) {
	t.Helper()
	bg := randgraph.Butterfly(3, 3, 1)
	bp := platform.Homogeneous(10, 1, 1)
	bs, err := ltf.Schedule(context.Background(), bg, bp, eps, 15*float64(eps+1), ltf.Options{})
	if err != nil {
		t.Fatalf("butterfly eps=%d: %v", eps, err)
	}
	r := rng.New(31)
	hp := platform.RandomHeterogeneous(r, 12, 0.5, 1, 0.5, 1, 100)
	cfg := randgraph.DefaultStreamConfig()
	cfg.MinTasks, cfg.MaxTasks = 30, 40
	hg := randgraph.Stream(r, cfg, hp)
	hs, err := rltf.Schedule(context.Background(), hg, hp, eps, 20*float64(eps+1), rltf.Options{})
	if err != nil {
		t.Fatalf("stream eps=%d: %v", eps, err)
	}
	return bs, hs
}

// simGoldenBoundaryChain is a hand-built 3-stage chain where every exec and
// transfer lasts exactly one period, so in synchronous mode each cycle gate
// opens at the very instant its input becomes available: gate == now at every
// dispatch. This pins the `gate > now` comparison direction — treating an
// exactly-due gate as future would stall the whole pipeline.
func simGoldenBoundaryChain(t *testing.T) *schedule.Schedule {
	t.Helper()
	g := randgraph.Chain(3, 1, 1)
	p := platform.Homogeneous(3, 1, 1)
	s := schedule.New(g, p, 0, 1, "manual")
	s.AddReplica(&schedule.Replica{Ref: schedule.Ref{Task: 0, Copy: 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&schedule.Replica{Ref: schedule.Ref{Task: 1, Copy: 0}, Proc: 1, Start: 2, Finish: 3,
		In: []schedule.Comm{{From: schedule.Ref{Task: 0, Copy: 0}, Volume: 1, Start: 1, Finish: 2}}})
	s.AddReplica(&schedule.Replica{Ref: schedule.Ref{Task: 2, Copy: 0}, Proc: 2, Start: 4, Finish: 5,
		In: []schedule.Comm{{From: schedule.Ref{Task: 1, Copy: 0}, Volume: 1, Start: 3, Finish: 4}}})
	return s
}

// simGoldenRingOverload is the TestRingGrowth schedule (two unit tasks
// co-located on one processor, period 0.5) run under synchronous semantics:
// each item needs 2 time units but cycles open every 0.5, so the backlog —
// and with it the live-item span — outgrows the initial ring window and the
// ring must double while gated instances are still pending.
func simGoldenRingOverload(t *testing.T) *schedule.Schedule {
	t.Helper()
	g := randgraph.Chain(2, 1, 0)
	p := platform.Homogeneous(1, 1, 1)
	s := schedule.New(g, p, 0, 0.5, "manual")
	s.AddReplica(&schedule.Replica{Ref: schedule.Ref{Task: 0, Copy: 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&schedule.Replica{Ref: schedule.Ref{Task: 1, Copy: 0}, Proc: 0, Start: 1, Finish: 2,
		In: []schedule.Comm{{From: schedule.Ref{Task: 0, Copy: 0}, Volume: 0, Start: 1, Finish: 1}}})
	return s
}

// simGoldenHorizon is a hand-built ε=1 schedule whose consumer waits
// nearly the longest a synchronous run allows for its gate. A chain x0…x_d (work
// 0.5, unit volumes) has copy 0 co-located on P0, so that whole copy is at
// stage 1, while copy 1 alternates P1/P2 and goes one stage deeper per hop.
// The consumer c (work 1) has copies on P3 and P4, each fed by both copies
// of x_d, which puts c at stage S = d+2. With P1 dead from t=0 the deep
// copy is lost and c's input comes from the shallow copy in cycle k+1, so
// c's instance of item k parks 2S−4 cycles past the first unopened cycle,
// one short of the 2S−3 a synchronous run can reach, and waits until cycle
// k+2S−2: the latency is (2S−2)Δ+1.
func simGoldenHorizon(d int) func(*testing.T) *schedule.Schedule {
	return func(t *testing.T) *schedule.Schedule {
		t.Helper()
		g := dag.New(fmt.Sprintf("horizon-%d", d))
		for i := 0; i <= d; i++ {
			g.AddTask(fmt.Sprintf("x%d", i), 0.5)
			if i > 0 {
				g.MustAddEdge(dag.TaskID(i-1), dag.TaskID(i), 1)
			}
		}
		c := g.AddTask("c", 1)
		g.MustAddEdge(dag.TaskID(d), c, 1)
		s := schedule.New(g, platform.Homogeneous(5, 1, 1), 1, 10, "manual")
		deep := func(i int) platform.ProcID { return platform.ProcID(1 + i%2) }
		for i := 0; i <= d; i++ {
			shallow := &schedule.Replica{Ref: schedule.Ref{Task: dag.TaskID(i), Copy: 0}, Proc: 0,
				Start: 0.5 * float64(i), Finish: 0.5 * float64(i+1)}
			// Copy 1 of x_i finishes at 0.5+1.5i: each hop is a unit
			// transfer and a half-unit execution.
			fin := 0.5 + 1.5*float64(i)
			deepRep := &schedule.Replica{Ref: schedule.Ref{Task: dag.TaskID(i), Copy: 1}, Proc: deep(i),
				Start: fin - 0.5, Finish: fin}
			if i > 0 {
				shallow.In = []schedule.Comm{{From: schedule.Ref{Task: dag.TaskID(i - 1), Copy: 0},
					Volume: 1, Start: shallow.Start, Finish: shallow.Start}}
				deepRep.In = []schedule.Comm{{From: schedule.Ref{Task: dag.TaskID(i - 1), Copy: 1},
					Volume: 1, Start: fin - 1.5, Finish: fin - 0.5}}
			}
			s.AddReplica(shallow)
			s.AddReplica(deepRep)
		}
		// P0 sends x_d's output to P3 then P4, and x_d's deep copy does the
		// same from its own finish.
		shallowFin, deepFin := 0.5*float64(d+1), 0.5+1.5*float64(d)
		for copyIdx := 0; copyIdx < 2; copyIdx++ {
			off := float64(copyIdx)
			s.AddReplica(&schedule.Replica{Ref: schedule.Ref{Task: c, Copy: copyIdx},
				Proc: platform.ProcID(3 + copyIdx), Start: deepFin + 1 + off, Finish: deepFin + 2 + off,
				In: []schedule.Comm{
					{From: schedule.Ref{Task: dag.TaskID(d), Copy: 0}, Volume: 1,
						Start: shallowFin + off, Finish: shallowFin + 1 + off},
					{From: schedule.Ref{Task: dag.TaskID(d), Copy: 1}, Volume: 1,
						Start: deepFin + off, Finish: deepFin + 1 + off},
				}})
		}
		return s
	}
}

// simFig4Seed names the one Fig. 4 cell the fig4 goldens and the
// BenchmarkSim/fig4 cases simulate; simFig4Crash is the crash set that
// experiments.makeCell's r.Sample draw picks for it.
const simFig4Seed = 7

var simFig4Crash = []platform.ProcID{5, 13}

// simGoldenFig4 draws one m=20 cell the way experiments.makeCell draws a
// Fig. 4 cell (heterogeneous platform, random stream graph at granularity
// 0.6, φ=0.2, Δ_base=10) and schedules it with R-LTF at ε=3 and Δ=40. At
// this size the one-port ports stay contended in steady state, which the
// smaller goldens never reach.
func simGoldenFig4(tb testing.TB) *schedule.Schedule {
	tb.Helper()
	r := rng.New(simFig4Seed)
	p := platform.RandomHeterogeneous(r, 20, 0.5, 1, 0.5, 1, 100)
	cfg := randgraph.DefaultStreamConfig()
	cfg.Granularity = 0.6
	cfg.ComputeFraction = 0.2
	cfg.PeriodBase = 10
	g := randgraph.Stream(r, cfg, p)
	s, err := rltf.Schedule(context.Background(), g, p, 3, 40, rltf.Options{})
	if err != nil {
		tb.Fatalf("fig4 cell (seed %d): %v", simFig4Seed, err)
	}
	return s
}

type simGoldenCase struct {
	name   string
	sched  func(t *testing.T) *schedule.Schedule
	cfg    sim.Config
	crash  []platform.ProcID // nil = no failure
	at     float64           // multiplied by the schedule period at run time
	atInto bool              // add half a period so the crash lands mid-cycle
	// defaultItems takes Items and Warmup from sim.DefaultConfig.
	defaultItems bool
}

func simGoldenCases() []simGoldenCase {
	butterfly := func(eps int) func(*testing.T) *schedule.Schedule {
		return func(t *testing.T) *schedule.Schedule { b, _ := simGoldenSchedules(t, eps); return b }
	}
	stream := func(eps int) func(*testing.T) *schedule.Schedule {
		return func(t *testing.T) *schedule.Schedule { _, s := simGoldenSchedules(t, eps); return s }
	}
	fig4 := func(t *testing.T) *schedule.Schedule { return simGoldenFig4(t) }
	cases := []simGoldenCase{
		// Free-running dataflow semantics.
		{name: "df_butterfly_eps0", sched: butterfly(0),
			cfg: sim.Config{Items: 24, Warmup: 4, TraceItems: 2}},
		{name: "df_butterfly_eps0_crash0", sched: butterfly(0),
			cfg: sim.Config{Items: 24, Warmup: 4}, crash: []platform.ProcID{0}},
		{name: "df_butterfly_eps1_crash0", sched: butterfly(1),
			cfg: sim.Config{Items: 24, Warmup: 4}, crash: []platform.ProcID{0}},
		{name: "df_butterfly_eps1_mid", sched: butterfly(1),
			cfg: sim.Config{Items: 30, Warmup: 4}, crash: []platform.ProcID{3}, at: 10, atInto: true},
		{name: "df_stream_eps1", sched: stream(1),
			cfg: sim.Config{Items: 24, Warmup: 4}},
		{name: "df_stream_eps1_trace", sched: stream(1),
			cfg: sim.Config{Items: 24, Warmup: 4, TraceItems: 3}},
		{name: "df_stream_eps3_crash2", sched: stream(3),
			cfg: sim.Config{Items: 24, Warmup: 4}, crash: []platform.ProcID{0, 5}},
		// Stage-synchronized pipeline semantics.
		{name: "sync_butterfly_eps0", sched: butterfly(0),
			cfg: sim.Config{Items: 24, Warmup: 4, Synchronous: true, TraceItems: 2}},
		{name: "sync_butterfly_eps1", sched: butterfly(1),
			cfg: sim.Config{Items: 24, Warmup: 4, Synchronous: true}},
		{name: "sync_butterfly_eps1_crash0", sched: butterfly(1),
			cfg: sim.Config{Items: 24, Warmup: 4, Synchronous: true}, crash: []platform.ProcID{0}},
		{name: "sync_stream_eps1", sched: stream(1),
			cfg: sim.Config{Items: 24, Warmup: 4, Synchronous: true}},
		{name: "sync_stream_eps3_mid", sched: stream(3),
			cfg:   sim.Config{Items: 30, Warmup: 4, Synchronous: true, TraceItems: 2},
			crash: []platform.ProcID{2, 7}, at: 10, atInto: true},
		// Edge cases the batched wake path must preserve: gates landing
		// exactly on a cycle boundary, a crash arriving mid-cycle while
		// instances sit gated, and ring growth under synchronous backlog.
		{name: "sync_boundary_chain", sched: simGoldenBoundaryChain,
			cfg: sim.Config{Items: 24, Warmup: 4, Synchronous: true, TraceItems: 2}},
		{name: "sync_butterfly_eps1_midgate", sched: butterfly(1),
			cfg:   sim.Config{Items: 30, Warmup: 4, Synchronous: true},
			crash: []platform.ProcID{3}, at: 6, atInto: true},
		{name: "sync_ring_overload", sched: simGoldenRingOverload,
			cfg: sim.Config{Items: 64, Synchronous: true}},
		// A Fig. 4 cell at the paper's scale: ε=3, two processors dead
		// from the start, sim.DefaultConfig's item count.
		{name: "df_fig4_eps3_crash2", sched: fig4, defaultItems: true, crash: simFig4Crash},
		{name: "sync_fig4_eps3_crash2", sched: fig4, defaultItems: true, crash: simFig4Crash,
			cfg: sim.Config{Synchronous: true}},
	}
	// Gates near the synchronous horizon, 2S−4 cycles past the first
	// unopened one, for S = 4, 8 and 16: on both sides of several
	// power-of-two ring sizes, so a cycle ring one power of two too small
	// opens them early.
	for _, d := range []int{2, 6, 14} {
		cases = append(cases, simGoldenCase{name: fmt.Sprintf("sync_horizon_crash_s%d", d+2),
			sched: simGoldenHorizon(d), crash: []platform.ProcID{1},
			cfg: sim.Config{Items: 24, Warmup: 4, Synchronous: true}})
	}
	return cases
}

func TestGoldenSimResults(t *testing.T) {
	for _, tc := range simGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sched(t)
			cfg := tc.cfg
			if tc.defaultItems {
				d := sim.DefaultConfig(s)
				cfg.Items, cfg.Warmup = d.Items, d.Warmup
			}
			if tc.crash != nil {
				spec := sim.FailureSpec{Procs: tc.crash, At: tc.at * s.Period}
				if tc.atInto {
					spec.At += s.Period / 2
				}
				cfg.Failures = spec
			}
			res, err := sim.Run(context.Background(), s, cfg)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			// Re-running must be bit-identical before it can be golden.
			res2, err := sim.Run(context.Background(), s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, res, res2)

			got, err := json.MarshalIndent(toGolden(res), "", " ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", "sim_"+tc.name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("sim result diverges from golden %s (%d vs %d bytes); the flat engine must be byte-identical to the pre-refactor engine", path, len(got), len(want))
			}
		})
	}
}

func assertSameResult(t *testing.T, a, b *sim.Result) {
	t.Helper()
	same := a.Delivered == b.Delivered && a.Items == b.Items &&
		eqFloat(a.MeanLatency, b.MeanLatency) && eqFloat(a.MaxLatency, b.MaxLatency) &&
		eqFloat(a.AchievedPeriod, b.AchievedPeriod) && len(a.Latencies) == len(b.Latencies)
	if same {
		for i := range a.Latencies {
			if a.Latencies[i] != b.Latencies[i] {
				same = false
				break
			}
		}
	}
	if !same {
		t.Fatal("simulator is not deterministic across runs")
	}
}

func eqFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
