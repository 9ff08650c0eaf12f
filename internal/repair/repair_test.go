package repair_test

import (
	"context"
	"errors"
	"testing"

	"streamsched/internal/dag"
	"streamsched/internal/ltf"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/repair"
	"streamsched/internal/rltf"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
)

// testInstance builds a heterogeneous stream instance like the goldens and
// solves it with the requested algorithm.
func testInstance(t *testing.T, seed uint64, m, eps int, reverse bool) (*schedule.Schedule, *platform.Platform) {
	t.Helper()
	r := rng.New(seed)
	p := platform.RandomHeterogeneous(r, m, 0.5, 1, 0.5, 1, 100)
	cfg := randgraph.DefaultStreamConfig()
	g := randgraph.Stream(r, cfg, p)
	period := 20.0 * float64(eps+1)
	var (
		s   *schedule.Schedule
		err error
	)
	if reverse {
		s, err = rltf.Schedule(context.Background(), g, p, eps, period, rltf.Options{})
	} else {
		s, err = ltf.Schedule(context.Background(), g, p, eps, period, ltf.Options{})
	}
	if err != nil {
		t.Fatalf("solving the seed instance: %v", err)
	}
	return s, p
}

func mustApply(t *testing.T, d repair.Delta, p *platform.Platform) (*platform.Platform, []platform.ProcID) {
	t.Helper()
	newP, remap, err := d.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	return newP, remap
}

// covered asserts the stats partition the task set.
func covered(t *testing.T, s repair.Stats, n int) {
	t.Helper()
	if s.Replayed+s.Preserved+s.Repaired != n {
		t.Fatalf("stats %+v do not cover %d tasks", s, n)
	}
}

// TestRepairPureReplayOnAddedProc: adding capacity invalidates nothing. A
// forward LTF schedule replays exactly; a mirrored R-LTF schedule at least
// keeps its processor assignment (the forward discipline can reject the
// mirrored chain structure, demoting tasks to the processor-preserving
// rung, but never to search on a pure capacity add).
func TestRepairPureReplayOnAddedProc(t *testing.T) {
	for _, reverse := range []bool{false, true} {
		old, p := testInstance(t, 31, 10, 1, reverse)
		links := make([]float64, p.NumProcs())
		for i := range links {
			links[i] = 100
		}
		d := repair.Delta{Added: []repair.AddedProc{{Speed: 1, Links: links}}}
		newP, remap := mustApply(t, d, p)
		res, err := repair.Repair(context.Background(), old, newP, remap, 0)
		if err != nil {
			t.Fatalf("reverse=%v: %v", reverse, err)
		}
		covered(t, res.Stats, old.G.NumTasks())
		if !reverse && res.Stats.Replayed != old.G.NumTasks() {
			t.Fatalf("LTF: replayed %d of %d tasks on a pure capacity add (stats %+v)",
				res.Stats.Replayed, old.G.NumTasks(), res.Stats)
		}
		if reverse && res.Stats.Repaired != 0 {
			t.Fatalf("R-LTF: %d tasks searched on a pure capacity add (stats %+v)",
				res.Stats.Repaired, res.Stats)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("reverse=%v: repaired schedule invalid: %v", reverse, err)
		}
		if !reverse {
			if lb, ob := res.Schedule.LatencyBound(), old.LatencyBound(); lb != ob {
				t.Fatalf("pure replay changed the latency bound: %v vs %v", lb, ob)
			}
		}
	}
}

// requireRepairTrace checks a traced repair's span shape: per-chunk spans
// of the construction loop under the repair span, and one rung event on the
// repair span per task that left the exact-replay rung.
func requireRepairTrace(t *testing.T, tr *obs.Trace, s repair.Stats) {
	t.Helper()
	repairSpan, chunks, rungs := int32(-1), 0, 0
	for i, sp := range tr.Snapshot().Spans {
		switch {
		case sp.Name == "repair":
			repairSpan = int32(i)
		case sp.Name == "chunk" && sp.Parent == repairSpan:
			chunks++
		case sp.Name == "rung" && sp.Parent == repairSpan:
			rungs++
		}
	}
	if chunks == 0 || rungs != s.Preserved+s.Repaired {
		t.Fatalf("repair trace has %d chunk spans and %d rung events for stats %+v", chunks, rungs, s)
	}
}

// TestRepairProcessorLoss: losing a processor evicts exactly the tasks with
// a replica there (plus discipline casualties); the result must validate
// under the post-delta platform, and its trace carries the ladder.
func TestRepairProcessorLoss(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	for _, reverse := range []bool{false, true} {
		for _, eps := range []int{0, 1, 2} {
			old, p := testInstance(t, 47, 12, eps, reverse)
			d := repair.Delta{Lost: []platform.ProcID{3}}
			newP, remap := mustApply(t, d, p)
			tr := obs.NewTrace("replan")
			res, err := repair.Repair(obs.ContextWith(context.Background(), tr.Root()), old, newP, remap, 0)
			if err != nil {
				t.Fatalf("reverse=%v eps=%d: %v", reverse, eps, err)
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Fatalf("reverse=%v eps=%d: repaired schedule invalid: %v", reverse, eps, err)
			}
			if res.Schedule.P.NumProcs() != p.NumProcs()-1 {
				t.Fatalf("reverse=%v eps=%d: repaired schedule kept %d processors", reverse, eps, res.Schedule.P.NumProcs())
			}
			covered(t, res.Stats, old.G.NumTasks())
			requireRepairTrace(t, tr, res.Stats)
		}
	}
}

// TestRepairSpeedAndBandwidthChange: degraded capacity must still yield a
// valid schedule, upgraded capacity a pure replay (for a forward schedule).
func TestRepairSpeedAndBandwidthChange(t *testing.T) {
	old, p := testInstance(t, 59, 10, 1, false)
	degrade := repair.Delta{
		Speed:     []repair.SpeedChange{{Proc: 0, Speed: p.Speed(0) * 0.5}},
		Bandwidth: []repair.BandwidthChange{{From: 0, To: 1, Bandwidth: 10}, {From: 1, To: 0, Bandwidth: 10}},
	}
	newP, remap := mustApply(t, degrade, p)
	res, err := repair.Repair(context.Background(), old, newP, remap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("repaired schedule invalid: %v", err)
	}
	covered(t, res.Stats, old.G.NumTasks())

	upgrade := repair.Delta{Speed: []repair.SpeedChange{{Proc: 0, Speed: p.Speed(0) * 2}}}
	newP, remap = mustApply(t, upgrade, p)
	res, err = repair.Repair(context.Background(), old, newP, remap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Replayed != old.G.NumTasks() {
		t.Fatalf("speed upgrade did not replay exactly: stats %+v", res.Stats)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("repaired schedule invalid: %v", err)
	}
}

// TestRepairBudgetExceeded: a lost processor under a tiny search budget
// fails with the typed sentinel.
func TestRepairBudgetExceeded(t *testing.T) {
	old, p := testInstance(t, 47, 12, 1, false)
	newP, remap := mustApply(t, repair.Delta{Lost: []platform.ProcID{3}}, p)
	full, err := repair.Repair(context.Background(), old, newP, remap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Repaired < 2 {
		t.Skipf("instance only needed %d search placements; budget test needs ≥ 2", full.Stats.Repaired)
	}
	if _, err := repair.Repair(context.Background(), old, newP, remap, 1); !errors.Is(err, repair.ErrBudgetExceeded) {
		t.Fatalf("budget 1: got %v, want ErrBudgetExceeded", err)
	}
	if _, err := repair.Repair(context.Background(), old, newP, remap, full.Stats.Repaired); err != nil {
		t.Fatalf("budget == need: %v", err)
	}
}

// TestDeltaApplyValidation: malformed deltas are rejected with errors, not
// platform.New panics.
func TestDeltaApplyValidation(t *testing.T) {
	p := platform.Homogeneous(3, 1, 10)
	bad := []repair.Delta{
		{Lost: []platform.ProcID{7}},
		{Lost: []platform.ProcID{1, 1}},
		{Lost: []platform.ProcID{0, 1, 2}},
		{Speed: []repair.SpeedChange{{Proc: 0, Speed: 0}}},
		{Speed: []repair.SpeedChange{{Proc: 9, Speed: 1}}},
		{Lost: []platform.ProcID{1}, Speed: []repair.SpeedChange{{Proc: 1, Speed: 2}}},
		{Bandwidth: []repair.BandwidthChange{{From: 0, To: 0, Bandwidth: 1}}},
		{Bandwidth: []repair.BandwidthChange{{From: 0, To: 1, Bandwidth: -1}}},
		{Added: []repair.AddedProc{{Speed: 0, Links: []float64{1, 1, 1}}}},
		{Added: []repair.AddedProc{{Speed: 1, Links: []float64{1}}}},
		{Added: []repair.AddedProc{{Speed: 1, Links: []float64{1, 0, 1}}}},
	}
	for i, d := range bad {
		if _, _, err := d.Apply(p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestDeltaApplyRemap pins the dense renumbering.
func TestDeltaApplyRemap(t *testing.T) {
	p := platform.Homogeneous(4, 1, 10)
	d := repair.Delta{
		Lost:  []platform.ProcID{1},
		Added: []repair.AddedProc{{Speed: 2, Links: []float64{5, 5, 5}}},
	}
	newP, remap, err := d.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []platform.ProcID{0, -1, 1, 2}
	for i, w := range want {
		if remap[i] != w {
			t.Fatalf("remap = %v, want %v", remap, want)
		}
	}
	if newP.NumProcs() != 4 {
		t.Fatalf("new platform has %d processors", newP.NumProcs())
	}
	if newP.Speed(3) != 2 {
		t.Fatalf("added processor speed = %v", newP.Speed(3))
	}
	if got := newP.Bandwidth(3, 0); got != 5 {
		t.Fatalf("added link bandwidth = %v", got)
	}
	if got := newP.Bandwidth(0, 3); got != 5 {
		t.Fatalf("added link bandwidth (reverse) = %v", got)
	}
	// Surviving links keep their values under renumbering.
	if got, want := newP.Bandwidth(1, 2), p.Bandwidth(2, 3); got != want {
		t.Fatalf("survivor link bandwidth = %v, want %v", got, want)
	}
}

// TestRepairEmptyDeltaIsStructuralIdentity: the empty delta replays a
// forward schedule into the same structure — same processor and same
// sources per replica, same latency bound. (Byte identity is out of reach:
// construction interleaves placement rounds across a chunk while replay
// commits task by task, and the one-port timestamps depend on commit
// order. The steady-state admission budgets and the stage map do not.)
func TestRepairEmptyDeltaIsStructuralIdentity(t *testing.T) {
	old, p := testInstance(t, 31, 8, 1, false)
	newP, remap := mustApply(t, repair.Delta{}, p)
	res, err := repair.Repair(context.Background(), old, newP, remap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Replayed != old.G.NumTasks() {
		t.Fatalf("empty delta did not replay exactly: stats %+v", res.Stats)
	}
	for t2 := 0; t2 < old.G.NumTasks(); t2++ {
		for c := 0; c <= old.Eps; c++ {
			ref := schedule.Ref{Task: dag.TaskID(t2), Copy: c}
			or, nr := old.Replica(ref), res.Schedule.Replica(ref)
			if or.Proc != nr.Proc {
				t.Fatalf("replica %v moved: %d -> %d", ref, or.Proc, nr.Proc)
			}
			os, ns := sourceSet(or), sourceSet(nr)
			if len(os) != len(ns) {
				t.Fatalf("replica %v: %d sources, was %d", ref, len(ns), len(os))
			}
			for s := range os {
				if !ns[s] {
					t.Fatalf("replica %v lost source %v", ref, s)
				}
			}
		}
	}
	if lb, ob := res.Schedule.LatencyBound(), old.LatencyBound(); lb != ob {
		t.Fatalf("latency bound changed: %v vs %v", lb, ob)
	}
}

func sourceSet(r *schedule.Replica) map[schedule.Ref]bool {
	m := make(map[schedule.Ref]bool, len(r.In))
	for _, in := range r.In {
		m[in.From] = true
	}
	return m
}
