package schedule

import (
	"math"
	"strings"
	"testing"

	"streamsched/internal/dag"
	"streamsched/internal/platform"
)

// chainAB returns the graph a→b with unit works and volume 2.
func chainAB() *dag.Graph {
	g := dag.New("ab")
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	g.MustAddEdge(a, b, 2)
	return g
}

// fixture builds the canonical valid ε=1 schedule used across tests:
// a⁽¹⁾@P0, a⁽²⁾@P1, b⁽¹⁾@P2, b⁽²⁾@P3; one-to-one comms a⁽ᵏ⁾→b⁽ᵏ⁾.
func fixture(t testing.TB) *Schedule {
	t.Helper()
	g := chainAB()
	p := platform.Homogeneous(4, 1, 1)
	s := New(g, p, 1, 10, "test")
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{0, 1}, Proc: 1, Start: 0, Finish: 1})
	s.AddReplica(&Replica{
		Ref: Ref{1, 0}, Proc: 2, Start: 3, Finish: 4,
		In: []Comm{{From: Ref{0, 0}, Volume: 2, Start: 1, Finish: 3}},
	})
	s.AddReplica(&Replica{
		Ref: Ref{1, 1}, Proc: 3, Start: 3, Finish: 4,
		In: []Comm{{From: Ref{0, 1}, Volume: 2, Start: 1, Finish: 3}},
	})
	return s
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	g := chainAB()
	p := platform.Homogeneous(2, 1, 1)
	for i, f := range []func(){
		func() { New(g, p, -1, 10, "x") },
		func() { New(g, p, 0, 0, "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAddReplicaDuplicatePanics(t *testing.T) {
	s := fixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 3})
}

func TestComplete(t *testing.T) {
	g := chainAB()
	p := platform.Homogeneous(4, 1, 1)
	s := New(g, p, 1, 10, "t")
	if s.Complete() {
		t.Fatal("empty schedule reported complete")
	}
	full := fixture(t)
	if !full.Complete() {
		t.Fatal("fixture should be complete")
	}
}

func TestMappingMatrix(t *testing.T) {
	s := fixture(t)
	x := s.Mapping()
	want := [][]int{{1, 1, 0, 0}, {0, 0, 1, 1}}
	for i := range want {
		for u := range want[i] {
			if x[i][u] != want[i][u] {
				t.Fatalf("X[%d][%d] = %d, want %d", i, u, x[i][u], want[i][u])
			}
		}
	}
}

func TestOnProcSorted(t *testing.T) {
	g := dag.New("two")
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	g.MustAddEdge(a, b, 0)
	p := platform.Homogeneous(1, 1, 1)
	s := New(g, p, 0, 10, "t")
	s.AddReplica(&Replica{Ref: Ref{1, 0}, Proc: 0, Start: 5, Finish: 6,
		In: []Comm{{From: Ref{0, 0}, Volume: 0, Start: 1, Finish: 1}}})
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 0, Start: 0, Finish: 1})
	reps := s.OnProc(0)
	if len(reps) != 2 || reps[0].Ref.Task != 0 || reps[1].Ref.Task != 1 {
		t.Fatalf("OnProc not sorted by start: %v", reps)
	}
}

func TestLoads(t *testing.T) {
	s := fixture(t)
	l := s.Loads()
	wantSigma := []float64{1, 1, 1, 1}
	wantCIn := []float64{0, 0, 2, 2}
	wantCOut := []float64{2, 2, 0, 0}
	for u := 0; u < 4; u++ {
		if l.Sigma[u] != wantSigma[u] || l.CIn[u] != wantCIn[u] || l.COut[u] != wantCOut[u] {
			t.Fatalf("loads[%d] = Σ%v I%v O%v", u, l.Sigma[u], l.CIn[u], l.COut[u])
		}
	}
}

func TestLoadsIgnoreCoLocatedComms(t *testing.T) {
	g := chainAB()
	p := platform.Homogeneous(2, 1, 1)
	s := New(g, p, 0, 10, "t")
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{1, 0}, Proc: 0, Start: 1, Finish: 2,
		In: []Comm{{From: Ref{0, 0}, Volume: 2, Start: 1, Finish: 1}}})
	l := s.Loads()
	if l.CIn[0] != 0 || l.COut[0] != 0 {
		t.Fatalf("co-located comm priced: %+v", l)
	}
}

func TestCycleTimesAndThroughput(t *testing.T) {
	s := fixture(t)
	ct := s.CycleTimes()
	// Δ_u = max(Σ, C^I, C^O): P0 max(1,0,2)=2 etc.
	want := []float64{2, 2, 2, 2}
	for u := range want {
		if ct[u] != want[u] {
			t.Fatalf("Δ_%d = %v, want %v", u, ct[u], want[u])
		}
	}
	if got := s.AchievedCycleTime(); got != 2 {
		t.Fatalf("AchievedCycleTime = %v", got)
	}
	if got := s.AchievedThroughput(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AchievedThroughput = %v", got)
	}
	if got := s.Throughput(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("enforced Throughput = %v", got)
	}
}

func TestProcessorUtilization(t *testing.T) {
	s := fixture(t)
	for u, up := range s.ProcessorUtilization() {
		if math.Abs(up-0.1) > 1e-12 {
			t.Fatalf("U_P(%d) = %v, want 0.1", u, up)
		}
	}
}

func TestStagesCross(t *testing.T) {
	s := fixture(t)
	st := s.StageNumbers()
	if st[s.Index(Ref{0, 0})] != 1 || st[s.Index(Ref{0, 1})] != 1 {
		t.Fatalf("entry stages: %v", st)
	}
	if st[s.Index(Ref{1, 0})] != 2 || st[s.Index(Ref{1, 1})] != 2 {
		t.Fatalf("cross-proc successor stages: %v", st)
	}
	if s.Stages() != 2 {
		t.Fatalf("S = %d", s.Stages())
	}
	if got := s.LatencyBound(); got != 30 {
		t.Fatalf("L = %v, want (2·2−1)·10 = 30", got)
	}
}

func TestStagesCoLocated(t *testing.T) {
	g := chainAB()
	p := platform.Homogeneous(2, 1, 1)
	s := New(g, p, 0, 10, "t")
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{1, 0}, Proc: 0, Start: 1, Finish: 2,
		In: []Comm{{From: Ref{0, 0}, Volume: 2, Start: 1, Finish: 1}}})
	if s.Stages() != 1 {
		t.Fatalf("co-located chain S = %d, want 1", s.Stages())
	}
	if got := s.LatencyBound(); got != 10 {
		t.Fatalf("L = %v, want Δ", got)
	}
}

func TestCommCounts(t *testing.T) {
	s := fixture(t)
	if s.CrossComms() != 2 {
		t.Fatalf("CrossComms = %d", s.CrossComms())
	}
	if s.TotalComms() != 2 {
		t.Fatalf("TotalComms = %d", s.TotalComms())
	}
	if s.ProcsUsed() != 4 {
		t.Fatalf("ProcsUsed = %d", s.ProcsUsed())
	}
}

func TestMakespan(t *testing.T) {
	if got := fixture(t).Makespan(); got != 4 {
		t.Fatalf("Makespan = %v", got)
	}
}

func TestReplicaValidityChainDisjoint(t *testing.T) {
	s := fixture(t)
	// No failures: everything valid.
	v := s.ReplicaValidity(func(platform.ProcID) bool { return false })
	if len(v) != 4 {
		t.Fatalf("validity map %v", v)
	}
	// P0 fails: a⁽¹⁾ and hence b⁽¹⁾ invalid; chain 2 survives.
	v = s.ReplicaValidity(func(u platform.ProcID) bool { return u == 0 })
	if v[Ref{0, 0}] || v[Ref{1, 0}] {
		t.Fatal("chain through failed processor should be invalid")
	}
	if !v[Ref{0, 1}] || !v[Ref{1, 1}] {
		t.Fatal("surviving chain should be valid")
	}
	if !s.ValidUnderFailures(func(u platform.ProcID) bool { return u == 0 }) {
		t.Fatal("schedule should survive one failure")
	}
}

func TestToleratesAllFailures(t *testing.T) {
	if !fixture(t).ToleratesAllFailures() {
		t.Fatal("fixture should tolerate ε=1 failures")
	}
}

func TestNonDisjointChainsNotTolerant(t *testing.T) {
	// Both b replicas read from a⁽¹⁾ only: killing P0 invalidates both.
	g := chainAB()
	p := platform.Homogeneous(4, 1, 1)
	s := New(g, p, 1, 10, "bad")
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{0, 1}, Proc: 1, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{1, 0}, Proc: 2, Start: 3, Finish: 4,
		In: []Comm{{From: Ref{0, 0}, Volume: 2, Start: 1, Finish: 3}}})
	s.AddReplica(&Replica{Ref: Ref{1, 1}, Proc: 3, Start: 5, Finish: 6,
		In: []Comm{{From: Ref{0, 0}, Volume: 2, Start: 3, Finish: 5}}})
	if s.ToleratesAllFailures() {
		t.Fatal("non-disjoint chains must not be ε=1 tolerant")
	}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should reject non-tolerant schedule")
	}
}

func TestFallbackFullReplicationTolerant(t *testing.T) {
	// b⁽¹⁾ receives from BOTH a replicas (fallback rule): tolerant even
	// though b⁽²⁾ also reads both.
	g := chainAB()
	p := platform.Homogeneous(4, 1, 1)
	s := New(g, p, 1, 20, "fallback")
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{0, 1}, Proc: 1, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{1, 0}, Proc: 2, Start: 5, Finish: 6,
		In: []Comm{
			{From: Ref{0, 0}, Volume: 2, Start: 1, Finish: 3},
			{From: Ref{0, 1}, Volume: 2, Start: 3, Finish: 5},
		}})
	s.AddReplica(&Replica{Ref: Ref{1, 1}, Proc: 3, Start: 7, Finish: 8,
		In: []Comm{
			{From: Ref{0, 0}, Volume: 2, Start: 3, Finish: 5},
			{From: Ref{0, 1}, Volume: 2, Start: 5, Finish: 7},
		}})
	if err := s.Validate(); err != nil {
		t.Fatalf("fallback schedule should validate: %v", err)
	}
}

func TestFailureSetsCount(t *testing.T) {
	count := 0
	FailureSets(5, 2, func(set []platform.ProcID) bool {
		count++
		return true
	})
	// C(5,0)+C(5,1)+C(5,2) = 1+5+10 = 16
	if count != 16 {
		t.Fatalf("enumerated %d sets, want 16", count)
	}
}

func TestFailureSetsEarlyStop(t *testing.T) {
	count := 0
	ok := FailureSets(5, 2, func(set []platform.ProcID) bool {
		count++
		return count < 3
	})
	if ok || count != 3 {
		t.Fatalf("early stop failed: ok=%v count=%d", ok, count)
	}
}

func TestValidatePositive(t *testing.T) {
	if err := fixture(t).Validate(); err != nil {
		t.Fatalf("fixture should validate: %v", err)
	}
}

func TestValidateMissingReplica(t *testing.T) {
	g := chainAB()
	p := platform.Homogeneous(4, 1, 1)
	s := New(g, p, 1, 10, "t")
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 0, Start: 0, Finish: 1})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "not placed") {
		t.Fatalf("want 'not placed' error, got %v", err)
	}
}

func TestValidateSameProcReplicas(t *testing.T) {
	g := dag.New("one")
	g.AddTask("a", 1)
	p := platform.Homogeneous(2, 1, 1)
	s := New(g, p, 1, 10, "t")
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{0, 1}, Proc: 0, Start: 1, Finish: 2})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "two replicas") {
		t.Fatalf("want same-proc error, got %v", err)
	}
}

func TestValidateMissingPredComm(t *testing.T) {
	s := fixture(t)
	s.Replica(Ref{1, 0}).In = nil
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "misses input") {
		t.Fatalf("want coverage error, got %v", err)
	}
}

func TestValidateCausality(t *testing.T) {
	s := fixture(t)
	s.Replica(Ref{1, 0}).In[0].Start = 0.5 // before source finish (1)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "before source finish") {
		t.Fatalf("want causality error, got %v", err)
	}
}

func TestValidateConsumerBeforeCommEnds(t *testing.T) {
	s := fixture(t)
	r := s.Replica(Ref{1, 0})
	r.Start, r.Finish = 2, 3 // comm ends at 3
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "before input comm finish") {
		t.Fatalf("want consumer-start error, got %v", err)
	}
}

func TestValidateWrongCommDuration(t *testing.T) {
	s := fixture(t)
	s.Replica(Ref{1, 0}).In[0].Finish = 2.5 // 1.5 time units, want 2
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "lasts") {
		t.Fatalf("want duration error, got %v", err)
	}
}

func TestValidateWrongExecDuration(t *testing.T) {
	s := fixture(t)
	s.Replica(Ref{0, 0}).Finish = 2 // work 1 at speed 1 must last 1
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "runs") {
		t.Fatalf("want exec duration error, got %v", err)
	}
}

func TestValidateThroughputViolation(t *testing.T) {
	g := chainAB()
	p := platform.Homogeneous(4, 1, 1)
	s := New(g, p, 1, 1.5, "t") // period 1.5 < comm time 2 → C^I over budget
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{0, 1}, Proc: 1, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{1, 0}, Proc: 2, Start: 3, Finish: 4,
		In: []Comm{{From: Ref{0, 0}, Volume: 2, Start: 1, Finish: 3}}})
	s.AddReplica(&Replica{Ref: Ref{1, 1}, Proc: 3, Start: 3, Finish: 4,
		In: []Comm{{From: Ref{0, 1}, Volume: 2, Start: 1, Finish: 3}}})
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "exceeds period") {
		t.Fatalf("want throughput error, got %v", err)
	}
	if err := s.ValidateOpts(ValidateOptions{SkipThroughput: true}); err != nil {
		t.Fatalf("SkipThroughput should pass: %v", err)
	}
}

func TestValidateOnePortOverlap(t *testing.T) {
	// Two sends from P0 overlapping in time.
	g := dag.New("fan")
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	c := g.AddTask("c", 1)
	g.MustAddEdge(a, b, 2)
	g.MustAddEdge(a, c, 2)
	p := platform.Homogeneous(3, 1, 1)
	s := New(g, p, 0, 10, "t")
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{1, 0}, Proc: 1, Start: 3, Finish: 4,
		In: []Comm{{From: Ref{0, 0}, Volume: 2, Start: 1, Finish: 3}}})
	s.AddReplica(&Replica{Ref: Ref{2, 0}, Proc: 2, Start: 4, Finish: 5,
		In: []Comm{{From: Ref{0, 0}, Volume: 2, Start: 2, Finish: 4}}}) // overlaps send [1,3)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "send overlap") {
		t.Fatalf("want one-port send error, got %v", err)
	}
}

// An empty window (a zero-volume transfer) occupies no port, so it may sit
// inside another transfer's window, as the one-port layer and the
// simulator treat it.
func TestValidateEmptyWindowOccupiesNoPort(t *testing.T) {
	g := dag.New("fan")
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	c := g.AddTask("c", 1)
	g.MustAddEdge(a, b, 2)
	g.MustAddEdge(a, c, 0)
	p := platform.Homogeneous(3, 1, 1)
	s := New(g, p, 0, 10, "t")
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{1, 0}, Proc: 1, Start: 3, Finish: 4,
		In: []Comm{{From: Ref{0, 0}, Volume: 2, Start: 1, Finish: 3}}})
	s.AddReplica(&Replica{Ref: Ref{2, 0}, Proc: 2, Start: 2, Finish: 3,
		In: []Comm{{From: Ref{0, 0}, Volume: 0, Start: 2, Finish: 2}}}) // inside send [1,3)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCommFromNonPredecessor(t *testing.T) {
	g := dag.New("three")
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	c := g.AddTask("c", 1)
	g.MustAddEdge(a, c, 1)
	g.MustAddEdge(b, c, 1)
	p := platform.Homogeneous(3, 1, 1)
	s := New(g, p, 0, 10, "t")
	s.AddReplica(&Replica{Ref: Ref{0, 0}, Proc: 0, Start: 0, Finish: 1})
	s.AddReplica(&Replica{Ref: Ref{1, 0}, Proc: 1, Start: 0, Finish: 1,
		In: []Comm{{From: Ref{0, 0}, Volume: 1, Start: 1, Finish: 2}}}) // b has no pred a
	s.AddReplica(&Replica{Ref: Ref{2, 0}, Proc: 2, Start: 4, Finish: 5,
		In: []Comm{
			{From: Ref{0, 0}, Volume: 1, Start: 1, Finish: 2},
			{From: Ref{1, 0}, Volume: 1, Start: 2, Finish: 3},
		}})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "non-predecessor") {
		t.Fatalf("want non-predecessor error, got %v", err)
	}
}

func TestValidateWrongVolume(t *testing.T) {
	s := fixture(t)
	s.Replica(Ref{1, 0}).In[0].Volume = 7
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "volume") {
		t.Fatalf("want volume error, got %v", err)
	}
}

func TestGanttRendering(t *testing.T) {
	s := fixture(t)
	out := s.Gantt(40)
	if !strings.Contains(out, "P1") || !strings.Contains(out, "S=2") {
		t.Fatalf("Gantt output:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 5 { // header + 4 procs
		t.Fatalf("Gantt rows wrong:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	g := chainAB()
	p := platform.Homogeneous(2, 1, 1)
	s := New(g, p, 0, 10, "t")
	if !strings.Contains(s.Gantt(40), "empty") {
		t.Fatal("empty gantt not flagged")
	}
}

func TestCommTable(t *testing.T) {
	out := fixture(t).CommTable()
	if !strings.Contains(out, "t0(1)@P1 → t1(1)@P3") {
		t.Fatalf("CommTable:\n%s", out)
	}
}

func TestStringer(t *testing.T) {
	if s := fixture(t).String(); !strings.Contains(s, "S=2") {
		t.Fatalf("String = %q", s)
	}
}

func TestReplicaRefs(t *testing.T) {
	refs := ReplicaRefs(3, 2)
	if len(refs) != 3 || refs[2] != (Ref{3, 2}) {
		t.Fatalf("ReplicaRefs = %v", refs)
	}
}

func TestRefString(t *testing.T) {
	if got := (Ref{2, 0}).String(); got != "t2(1)" {
		t.Fatalf("Ref.String = %q", got)
	}
}
