package rltf

import (
	"context"
	"testing"

	"streamsched/internal/dag"
	"streamsched/internal/ltf"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
)

func chain(n int, work, vol float64) *dag.Graph {
	g := dag.New("chain")
	prev := g.AddTask("t0", work)
	for i := 1; i < n; i++ {
		cur := g.AddTask("t", work)
		g.MustAddEdge(prev, cur, vol)
		prev = cur
	}
	return g
}

func intree(depth int) *dag.Graph {
	// Complete binary in-tree: leaves feed towards a single root (exit).
	g := dag.New("intree")
	var build func(d int) dag.TaskID
	build = func(d int) dag.TaskID {
		id := g.AddTask("t", 1)
		if d > 0 {
			l := build(d - 1)
			r := build(d - 1)
			g.MustAddEdge(l, id, 1)
			g.MustAddEdge(r, id, 1)
		}
		return id
	}
	build(depth)
	return g
}

func randomDAG(r *rng.Source, n int) *dag.Graph {
	g := dag.New("rand")
	for i := 0; i < n; i++ {
		g.AddTask("t", r.Uniform(0.5, 1.5))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(2.0 / float64(n)) {
				g.MustAddEdge(dag.TaskID(i), dag.TaskID(j), r.Uniform(0.1, 1))
			}
		}
	}
	return g
}

func TestChainMergesToOneStage(t *testing.T) {
	g := chain(5, 1, 1)
	p := platform.Homogeneous(6, 1, 1)
	s, err := Schedule(context.Background(), g, p, 1, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rule 1 merges each chain copy onto one processor: a single stage.
	if s.Stages() != 1 {
		t.Fatalf("chain stages = %d, want 1\n%s", s.Stages(), s.Gantt(60))
	}
	if s.LatencyBound() != 100 {
		t.Fatalf("L = %v", s.LatencyBound())
	}
}

func TestChainTightPeriodSplitsStages(t *testing.T) {
	// Period 2 with five unit tasks: at most 2 tasks per processor, so the
	// pipeline needs ≥3 processor changes per copy → ≥3 stages.
	g := chain(5, 1, 0.1)
	p := platform.Homogeneous(8, 1, 1)
	s, err := Schedule(context.Background(), g, p, 1, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Stages() < 3 {
		t.Fatalf("stages = %d, want ≥3 under tight period", s.Stages())
	}
}

func TestMirrorProducesValidForwardSchedule(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 15; trial++ {
		g := randomDAG(r, 10+r.IntN(25))
		p := platform.RandomHeterogeneous(r, 10, 0.5, 1, 0.5, 1, 10)
		eps := r.IntN(3)
		s, err := Schedule(context.Background(), g, p, eps, 100, Options{})
		if err != nil {
			continue
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d (eps=%d): %v", trial, eps, err)
		}
	}
}

func TestFaultTolerantUnderTightPeriod(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 15; trial++ {
		g := randomDAG(r, 12+r.IntN(16))
		p := platform.RandomHeterogeneous(r, 12, 0.5, 1, 0.5, 1, 10)
		// Tight-ish period: forces a mix of one-to-one and fallback.
		s, err := Schedule(context.Background(), g, p, 2, 8, Options{})
		if err != nil {
			continue
		}
		if !s.ToleratesAllFailures() {
			t.Fatalf("trial %d: not 2-fault tolerant\n%s", trial, s.Gantt(80))
		}
	}
}

func TestRLTFNotWorseThanLTFOnChains(t *testing.T) {
	for _, n := range []int{3, 6, 10} {
		g := chain(n, 1, 1)
		p := platform.Homogeneous(8, 1, 1)
		sr, err := Schedule(context.Background(), g, p, 1, 3, Options{})
		if err != nil {
			t.Fatalf("R-LTF failed on chain %d: %v", n, err)
		}
		sl, err := ltf.Schedule(context.Background(), g, p, 1, 3, ltf.Options{})
		if err != nil {
			t.Fatalf("LTF failed on chain %d: %v", n, err)
		}
		if sr.Stages() > sl.Stages() {
			t.Fatalf("chain %d: R-LTF stages %d > LTF stages %d", n, sr.Stages(), sl.Stages())
		}
	}
}

func TestFaultFree(t *testing.T) {
	g := chain(4, 1, 1)
	p := platform.Homogeneous(4, 1, 1)
	s, err := FaultFree(context.Background(), g, p, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Algorithm != "FF" || s.Eps != 0 {
		t.Fatalf("FF schedule mislabelled: %s eps=%d", s.Algorithm, s.Eps)
	}
	for i := 0; i < g.NumTasks(); i++ {
		if len(s.Replicas(dag.TaskID(i))) != 1 {
			t.Fatal("FF must not replicate")
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInTreeOneToOneCommCount(t *testing.T) {
	// On an in-tree every task has one successor, so reverse one-to-one
	// applies throughout (§4.2): the total number of communications must be
	// exactly e·(ε+1).
	g := intree(3)
	p := platform.Homogeneous(16, 1, 1)
	for eps := 0; eps <= 1; eps++ {
		s, err := Schedule(context.Background(), g, p, eps, 1000, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := g.NumEdges() * (eps + 1)
		if got := s.TotalComms(); got != want {
			t.Fatalf("eps=%d: TotalComms = %d, want e(ε+1) = %d", eps, got, want)
		}
	}
}

func TestSeriesParallelCommBound(t *testing.T) {
	// §4.2: "by applying [Rule 2] in the absence of throughput constraints,
	// we can reduce the number of communications down to e(ε+1) for any
	// series-parallel graph." Verified exactly on random SP instances.
	r := rng.New(33)
	for trial := 0; trial < 12; trial++ {
		g := randgraph.SeriesParallel(r, 10+r.IntN(25), 0.5, 1.5, 0.1, 1)
		p := platform.Homogeneous(4*(g.NumTasks()/2+2), 1, 10)
		for eps := 0; eps <= 2; eps++ {
			s, err := Schedule(context.Background(), g, p, eps, 1e6, Options{})
			if err != nil {
				t.Fatalf("trial %d eps=%d: %v", trial, eps, err)
			}
			want := g.NumEdges() * (eps + 1)
			if got := s.TotalComms(); got != want {
				t.Fatalf("trial %d eps=%d: TotalComms = %d, want e(ε+1) = %d",
					trial, eps, got, want)
			}
			if !s.ToleratesAllFailures() {
				t.Fatalf("trial %d eps=%d: SP schedule not fault tolerant", trial, eps)
			}
		}
	}
}

func TestDisableOneToOneBlowsUpComms(t *testing.T) {
	g := intree(3)
	p := platform.Homogeneous(16, 1, 1)
	one, err := Schedule(context.Background(), g, p, 1, 1000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Schedule(context.Background(), g, p, 1, 1000, Options{DisableOneToOne: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalComms() != g.NumEdges()*4 {
		t.Fatalf("full replication comms = %d, want e(ε+1)² = %d", full.TotalComms(), g.NumEdges()*4)
	}
	if one.TotalComms() >= full.TotalComms() {
		t.Fatalf("one-to-one (%d) not below full replication (%d)", one.TotalComms(), full.TotalComms())
	}
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStagesMatchMirroredStructure(t *testing.T) {
	// The forward stage count of the mirrored schedule must equal what the
	// reverse construction tracked; we verify the derived invariant that
	// every comm crosses stages by at most one.
	r := rng.New(5)
	g := randomDAG(r, 20)
	p := platform.Homogeneous(8, 1, 1)
	s, err := Schedule(context.Background(), g, p, 1, 50, Options{})
	if err != nil {
		t.Skip("instance infeasible")
	}
	stages := s.StageNumbers()
	for _, rep := range s.All() {
		for _, c := range rep.In {
			src := s.Replica(c.From)
			eta := 1
			if src.Proc == rep.Proc {
				eta = 0
			}
			if stages[s.Index(rep.Ref)] < stages[s.Index(c.From)]+eta {
				t.Fatalf("stage monotonicity violated: %v(stage %d) → %v(stage %d, η=%d)",
					c.From, stages[s.Index(c.From)], rep.Ref, stages[s.Index(rep.Ref)], eta)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	r := rng.New(15)
	g := randomDAG(r, 25)
	p := platform.RandomHeterogeneous(rng.New(16), 8, 0.5, 1, 0.5, 1, 10)
	s1, err1 := Schedule(context.Background(), g, p, 1, 50, Options{})
	s2, err2 := Schedule(context.Background(), g, p, 1, 50, Options{})
	if err1 != nil || err2 != nil {
		t.Skip("instance infeasible")
	}
	for i := 0; i < g.NumTasks(); i++ {
		for c := 0; c <= 1; c++ {
			ref := schedule.Ref{Task: dag.TaskID(i), Copy: c}
			r1, r2 := s1.Replica(ref), s2.Replica(ref)
			if r1.Proc != r2.Proc || r1.Start != r2.Start {
				t.Fatalf("nondeterministic placement of %v", ref)
			}
		}
	}
}

func TestInfeasibleError(t *testing.T) {
	g := chain(6, 1, 0.1)
	p := platform.Homogeneous(2, 1, 1)
	if _, err := Schedule(context.Background(), g, p, 1, 2, Options{}); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestSingleTask(t *testing.T) {
	g := dag.New("one")
	g.AddTask("only", 5)
	p := platform.Homogeneous(3, 1, 1)
	s, err := Schedule(context.Background(), g, p, 2, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Stages() != 1 {
		t.Fatalf("stages = %d", s.Stages())
	}
}
