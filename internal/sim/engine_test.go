package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"streamsched/internal/ltf"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/rltf"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
)

// TestEngineReuseMatchesFreshRuns drives one Engine through every scenario
// shape back to back (dataflow, synchronous, crash, trace) and checks each
// result equals a fresh package-level Run: buffer recycling must not leak
// state between runs.
func TestEngineReuseMatchesFreshRuns(t *testing.T) {
	r := rng.New(91)
	g := randomDAG(r, 18)
	p := platform.RandomHeterogeneous(r, 8, 0.5, 1, 0.5, 1, 10)
	s, err := rltf.Schedule(context.Background(), g, p, 1, 18, rltf.Options{})
	if err != nil {
		t.Skip("infeasible instance")
	}
	eng, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{Items: 30, Warmup: 5},
		{Items: 30, Warmup: 5, Synchronous: true},
		{Items: 30, Warmup: 5, Failures: FailureSpec{Procs: []platform.ProcID{2}}},
		{Items: 30, Warmup: 5, TraceItems: 2},
		{Items: 30, Warmup: 5}, // repeat the first: trace state must not linger
		{Items: 40, Warmup: 5, Synchronous: true, Failures: FailureSpec{Procs: []platform.ProcID{1}, At: 90}},
	}
	for i, cfg := range cfgs {
		got, err := eng.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		want, err := Run(context.Background(), s, cfg)
		if err != nil {
			t.Fatalf("cfg %d fresh: %v", i, err)
		}
		if !sameResult(got, want) {
			t.Fatalf("cfg %d: reused engine diverges from fresh run:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// fig4Schedule is the Fig. 4 cell of the repository's sim_*fig4* goldens:
// m=20, a random stream graph at granularity 0.6, R-LTF at ε=3 and Δ=40.
// fig4Crash is its two-processor crash set.
func fig4Schedule(t *testing.T) *schedule.Schedule {
	t.Helper()
	r := rng.New(7)
	p := platform.RandomHeterogeneous(r, 20, 0.5, 1, 0.5, 1, 100)
	cfg := randgraph.DefaultStreamConfig()
	cfg.Granularity = 0.6
	cfg.ComputeFraction = 0.2
	cfg.PeriodBase = 10
	s, err := rltf.Schedule(context.Background(), randgraph.Stream(r, cfg, p), p, 3, 40, rltf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var fig4Crash = []platform.ProcID{5, 13}

// TestEngineReuseAfterCancelledRun stops a run mid-stream (the loop polls
// ctx every 1,024 events, so an already-cancelled run returns with
// transfers still listed, granted and parked in gate buckets) and then
// reuses the engine: reset must drop every pair list and gate bucket the
// aborted run left behind. A completed run leaves the pair lists empty, so
// TestEngineReuseMatchesFreshRuns cannot see a reset that forgets them.
func TestEngineReuseAfterCancelledRun(t *testing.T) {
	s := fig4Schedule(t)
	eng, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sync := range []bool{false, true} {
		cfg := DefaultConfig(s)
		cfg.Synchronous = sync
		cfg.Failures = FailureSpec{Procs: fig4Crash}
		if _, err := eng.Run(cancelled, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("sync=%v: cancelled run returned %v", sync, err)
		}
		if !slices.ContainsFunc(eng.pairHead, func(h int32) bool { return h >= 0 }) {
			t.Fatalf("sync=%v: the cancelled run left no transfer listed; the test no longer reaches reset's clearing", sync)
		}
		if sync && len(eng.commGated) == 0 {
			t.Fatal("the cancelled synchronous run left no transfer parked")
		}
		got, err := eng.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want) {
			t.Fatalf("sync=%v: engine reused after a cancelled run diverges from a fresh run:\n got %+v\nwant %+v", sync, got, want)
		}
	}
}

func sameResult(a, b *Result) bool {
	eq := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	return a.Delivered == b.Delivered && a.Items == b.Items &&
		eq(a.MeanLatency, b.MeanLatency) && eq(a.MaxLatency, b.MaxLatency) &&
		eq(a.AchievedPeriod, b.AchievedPeriod) &&
		reflect.DeepEqual(a.Latencies, b.Latencies) &&
		reflect.DeepEqual(a.Trace, b.Trace)
}

// TestRingGrowth overloads one processor so the item backlog outgrows the
// initial pipeline-depth window: the item ring must expand and still deliver
// every item with the analytically known latencies.
func TestRingGrowth(t *testing.T) {
	// Two unit tasks, both on P0, co-located (zero volume), period 0.5: each
	// item needs 2 time units of P0 but items arrive every 0.5, so the
	// backlog — and the live-item window — grows linearly. Dispatch order is
	// earliest item first, so item k completes at 2k+2.
	g := chain(2, 1, 0)
	p := platform.Homogeneous(1, 1, 1)
	s := schedule.New(g, p, 0, 0.5, "manual")
	s.AddReplica(&schedule.Replica{Ref: schedule.Ref{Task: 0, Copy: 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&schedule.Replica{Ref: schedule.Ref{Task: 1, Copy: 0}, Proc: 0, Start: 1, Finish: 2,
		In: []schedule.Comm{{From: schedule.Ref{Task: 0, Copy: 0}, Volume: 0, Start: 1, Finish: 1}}})

	const items = 64
	res, err := Run(context.Background(), s, Config{Items: items, Warmup: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != items {
		t.Fatalf("delivered %d/%d", res.Delivered, items)
	}
	for k, lat := range res.Latencies {
		want := float64(2*k+2) - 0.5*float64(k)
		if math.Abs(lat-want) > 1e-9 {
			t.Fatalf("item %d latency = %v, want %v", k, lat, want)
		}
	}
}

// TestRunDefaultItemsKeepsConfig pins that Items ≤ 0 fills in only
// DefaultConfig's item count and warm-up: the synchronous mode, the crash
// and the trace request must survive. On the ε=1 LTF butterfly with
// processor 0 down from the start, the synchronous mean latency is 186;
// dropping the config would report the fault-free dataflow 22.
func TestRunDefaultItemsKeepsConfig(t *testing.T) {
	s, err := ltf.Schedule(context.Background(), randgraph.Butterfly(3, 3, 1), platform.Homogeneous(10, 1, 1), 1, 30, ltf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Synchronous: true, Failures: FailureSpec{Procs: []platform.ProcID{0}}, TraceItems: 2}
	got, err := Run(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig(s)
	cfg.Items, cfg.Warmup = def.Items, def.Warmup
	want, err := Run(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Fatalf("Items=0 diverges from DefaultConfig's items: mean latency %v, %d trace spans; want %v, %d",
			got.MeanLatency, len(got.Trace), want.MeanLatency, len(want.Trace))
	}
	if got.MeanLatency != 186 {
		t.Fatalf("mean latency %v, want the synchronous crash run's 186", got.MeanLatency)
	}
	if len(got.Trace) == 0 {
		t.Fatal("no trace recorded for TraceItems 2")
	}
}
