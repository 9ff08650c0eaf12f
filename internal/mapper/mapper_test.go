package mapper

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"streamsched/internal/bitset"
	"streamsched/internal/dag"
	"streamsched/internal/platform"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
	"streamsched/internal/timeline"
)

func chainAB() *dag.Graph {
	g := dag.New("ab")
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	g.MustAddEdge(a, b, 2)
	return g
}

func newState(t *testing.T, g *dag.Graph, m, eps int, period float64) *State {
	t.Helper()
	st, err := New(g, platform.Homogeneous(m, 1, 1), eps, period, "test")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// commit places copy c of task on u with the given sources the way the
// placement procedures do: it evaluates the candidate and commits it.
func commit(t *testing.T, st *State, task dag.TaskID, c int, u platform.ProcID, sources []schedule.Ref) *schedule.Replica {
	t.Helper()
	cand, ok, why := st.evalCandidate(task, u, sources, false)
	if !ok {
		t.Fatalf("placing copy %d of task %d on %d: infeasible (%v)", c, task, u, why)
	}
	return st.CommitPlace(task, c, cand)
}

func TestNewRejectsTooFewProcs(t *testing.T) {
	if _, err := New(chainAB(), platform.Homogeneous(2, 1, 1), 2, 10, "x"); err == nil {
		t.Fatal("ε+1 > m accepted")
	}
}

func TestNewRejectsCyclicGraph(t *testing.T) {
	g := dag.New("cyc")
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(b, a, 1)
	if _, err := New(g, platform.Homogeneous(2, 1, 1), 0, 10, "x"); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

func TestReadyAndChunks(t *testing.T) {
	g := dag.New("three")
	a := g.AddTask("a", 3) // highest priority (heaviest path)
	b := g.AddTask("b", 1)
	c := g.AddTask("c", 1)
	g.MustAddEdge(a, c, 1)
	_ = b
	st := newState(t, g, 4, 0, 100)
	if st.ReadyCount() != 2 {
		t.Fatalf("ready = %d, want 2 entries", st.ReadyCount())
	}
	chunk := st.PopChunk(1)
	if len(chunk) != 1 || chunk[0] != a {
		t.Fatalf("chunk = %v, want highest-priority task a", chunk)
	}
	commit(t, st, a, 0, 0, nil)
	st.MarkScheduled(chunk)
	// c becomes ready after a.
	if st.ReadyCount() != 2 {
		t.Fatalf("ready after a = %d, want {b, c}", st.ReadyCount())
	}
	if st.Done() {
		t.Fatal("not done yet")
	}
}

func TestMarkScheduledTwicePanics(t *testing.T) {
	g := chainAB()
	st := newState(t, g, 2, 0, 100)
	chunk := st.PopChunk(1)
	commit(t, st, chunk[0], 0, 0, nil)
	st.MarkScheduled(chunk)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.MarkScheduled(chunk)
}

// feasible reports condition (1) for a candidate the way placements test
// it, through evalCandidate, and checks that the trial and non-trial
// evaluations agree.
func feasible(t *testing.T, st *State, task dag.TaskID, u platform.ProcID, sources []schedule.Ref) bool {
	t.Helper()
	_, ok, _ := st.evalCandidate(task, u, sources, false)
	if _, okTrial, _ := st.evalCandidate(task, u, sources, true); okTrial != ok {
		t.Fatalf("evalCandidate(%d on %d): feasible %t without trial, %t with", task, u, ok, okTrial)
	}
	return ok
}

func TestFeasibleComputeBudget(t *testing.T) {
	g := chainAB()
	st := newState(t, g, 2, 0, 1.5) // period 1.5, unit tasks
	if !feasible(t, st, 0, 0, nil) {
		t.Fatal("empty processor must accept one unit task")
	}
	commit(t, st, 0, 0, 0, nil)
	st.MarkScheduled([]dag.TaskID{0})
	// Second unit task would push Σ to 2 > 1.5.
	if feasible(t, st, 1, 0, []schedule.Ref{{Task: 0, Copy: 0}}) {
		t.Fatal("Σ budget exceeded but Feasible said yes")
	}
	if !feasible(t, st, 1, 1, []schedule.Ref{{Task: 0, Copy: 0}}) {
		// comm volume 2 / bw 1 = 2 > 1.5 → port budget also binds
		t.Log("cross placement rejected due to port budget (expected)")
	}
}

func TestFeasiblePortBudget(t *testing.T) {
	g := dag.New("wide")
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	g.MustAddEdge(a, b, 3) // comm time 3 on unit links
	st, err := New(g, platform.Homogeneous(2, 1, 1), 0, 2.5, "x")
	if err != nil {
		t.Fatal(err)
	}
	commit(t, st, 0, 0, 0, nil)
	st.MarkScheduled([]dag.TaskID{0})
	// Cross-processor comm time = 3 > 2.5: C^I budget violated even though
	// Σ_1 = 1 would fit.
	if feasible(t, st, 1, 1, []schedule.Ref{{Task: 0, Copy: 0}}) {
		t.Fatal("port budget exceeded but Feasible said yes")
	}
	// Co-located placement prices no comm; Σ_0 = 1+1 = 2 ≤ 2.5.
	if !feasible(t, st, 1, 0, []schedule.Ref{{Task: 0, Copy: 0}}) {
		t.Fatal("co-located placement should be feasible")
	}
}

func TestFeasibleRejectsSameProcCopies(t *testing.T) {
	g := dag.New("one")
	g.AddTask("a", 0.1)
	st := newState(t, g, 3, 1, 100)
	commit(t, st, 0, 0, 1, nil)
	if feasible(t, st, 0, 1, nil) {
		t.Fatal("two copies on one processor accepted")
	}
	if !feasible(t, st, 0, 2, nil) {
		t.Fatal("distinct processor rejected")
	}
}

func TestCommitPlaceUpdatesLoads(t *testing.T) {
	g := chainAB()
	st := newState(t, g, 2, 0, 100)
	commit(t, st, 0, 0, 0, nil)
	st.MarkScheduled([]dag.TaskID{0})
	commit(t, st, 1, 0, 1, []schedule.Ref{{Task: 0, Copy: 0}})
	if st.Sigma[0] != 1 || st.Sigma[1] != 1 {
		t.Fatalf("Σ = %v", st.Sigma)
	}
	if st.CIn[1] != 2 || st.COut[0] != 2 {
		t.Fatalf("ports: in=%v out=%v", st.CIn, st.COut)
	}
	// Stage bookkeeping: b crossed a processor boundary.
	if st.ReplicaStage(schedule.Ref{Task: 1, Copy: 0}) != 2 {
		t.Fatalf("stage = %d", st.ReplicaStage(schedule.Ref{Task: 1, Copy: 0}))
	}
}

// The trial placement evalCandidate prices a candidate with must finish
// where the commit does, and must leave no trace.
func TestTrialFinishMatchesCommit(t *testing.T) {
	g := chainAB()
	st := newState(t, g, 2, 0, 100)
	commit(t, st, 0, 0, 0, nil)
	st.MarkScheduled([]dag.TaskID{0})
	cand, ok, _ := st.evalCandidate(1, 1, []schedule.Ref{{Task: 0, Copy: 0}}, true)
	if !ok {
		t.Fatal("feasible candidate rejected")
	}
	rep := st.CommitPlace(1, 0, cand)
	if rep.Finish != cand.Finish {
		t.Fatalf("trial %v vs commit %v", cand.Finish, rep.Finish)
	}
	if got := st.ReplicaStage(rep.Ref); got != cand.Stage {
		t.Fatalf("trial stage %d vs commit %d", cand.Stage, got)
	}
}

func TestTrialFinishDoesNotMutate(t *testing.T) {
	g := chainAB()
	st := newState(t, g, 2, 0, 100)
	commit(t, st, 0, 0, 0, nil)
	before, mark := st.Sys.Comp(1).Len(), st.Sys.Mark()
	if _, ok, _ := st.evalCandidate(1, 1, []schedule.Ref{{Task: 0, Copy: 0}}, true); !ok {
		t.Fatal("feasible candidate rejected")
	}
	if st.Sys.Comp(1).Len() != before || st.Sys.Mark() != mark {
		t.Fatal("trial mutated committed timelines")
	}
	if st.Sched.Replica(schedule.Ref{Task: 1, Copy: 0}) != nil {
		t.Fatal("trial registered a replica")
	}
}

func TestPoolsAndTheta(t *testing.T) {
	g := dag.New("join")
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	c := g.AddTask("c", 1)
	g.MustAddEdge(a, c, 1)
	g.MustAddEdge(b, c, 1)
	st := newState(t, g, 6, 1, 100)
	commit(t, st, a, 0, 0, nil)
	commit(t, st, a, 1, 1, nil)
	commit(t, st, b, 0, 2, nil)
	commit(t, st, b, 1, 3, nil)
	st.MarkScheduled([]dag.TaskID{a, b})
	pools := st.Pools(c)
	if len(pools) != 2 || len(pools[0]) != 2 || len(pools[1]) != 2 {
		t.Fatalf("pools = %v", pools)
	}
	if st.Theta(pools) != 2 {
		t.Fatalf("θ = %d", st.Theta(pools))
	}
	// Entry task: θ = ε+1.
	if st.Theta(nil) != 2 {
		t.Fatalf("entry θ = %d", st.Theta(nil))
	}
}

func TestOneToOneDisjointChains(t *testing.T) {
	g := chainAB()
	st := newState(t, g, 6, 1, 100)
	pools0 := st.Pools(dag.TaskID(0))
	if !st.OneToOne(0, 0, pools0, MinFinish) || !st.OneToOne(0, 1, pools0, MinFinish) {
		t.Fatal("entry one-to-one failed")
	}
	st.MarkScheduled([]dag.TaskID{0})
	pools := st.Pools(dag.TaskID(1))
	if !st.OneToOne(1, 0, pools, MinFinish) || !st.OneToOne(1, 1, pools, MinFinish) {
		t.Fatal("one-to-one failed for b")
	}
	// Claims of the two copies must be disjoint.
	if st.ClaimSet(1, 0).Intersects(st.ClaimSet(1, 1)) {
		t.Fatal("claims of the two copies overlap")
	}
	// Each b copy has exactly one input.
	for c := 0; c <= 1; c++ {
		rep := st.Sched.Replica(schedule.Ref{Task: 1, Copy: c})
		if len(rep.In) != 1 {
			t.Fatalf("copy %d has %d inputs", c, len(rep.In))
		}
	}
}

func TestFallbackFullReplication(t *testing.T) {
	g := chainAB()
	st := newState(t, g, 6, 1, 100)
	pools := st.Pools(dag.TaskID(0))
	st.OneToOne(0, 0, pools, MinFinish)
	st.OneToOne(0, 1, pools, MinFinish)
	st.MarkScheduled([]dag.TaskID{0})
	if err := st.Fallback(1, 0, MinFinish); err != nil {
		t.Fatal(err)
	}
	rep := st.Sched.Replica(schedule.Ref{Task: 1, Copy: 0})
	if len(rep.In) != 2 {
		t.Fatalf("fallback must receive from all copies, got %d", len(rep.In))
	}
}

func TestFallbackInfeasible(t *testing.T) {
	g := dag.New("heavy")
	g.AddTask("a", 10)
	st := newState(t, g, 2, 0, 5) // exec 10 > period 5 everywhere
	err := st.Fallback(0, 0, MinFinish)
	if err == nil {
		t.Fatal("expected infeasibility")
	}
	if _, ok := err.(*InfeasibleError); !ok {
		t.Fatalf("error type %T", err)
	}
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestTaskTransactionRollback(t *testing.T) {
	g := chainAB()
	st := newState(t, g, 4, 1, 100)
	st.ReverseMode = true
	pools := st.Pools(dag.TaskID(0))
	if st.Try([]dag.TaskID{0}, func() bool {
		if !st.OneToOne(0, 0, pools, MinFinish) {
			t.Fatal("one-to-one failed")
		}
		if st.Sched.Replica(schedule.Ref{Task: 0, Copy: 0}) == nil {
			t.Fatal("replica missing after placement")
		}
		return false
	}) {
		t.Fatal("Try kept a placement its place rejected")
	}
	if st.Sched.Replica(schedule.Ref{Task: 0, Copy: 0}) != nil {
		t.Fatal("replica survived rollback")
	}
	if st.Sigma[0] != 0 || st.Sys.Comp(0).Len() != 0 {
		t.Fatal("loads/timelines survived rollback")
	}
	if !st.ClaimSet(0, 0).Empty() {
		t.Fatal("claims survived rollback")
	}
	// Placement works again after rollback.
	if !st.OneToOne(0, 0, st.Pools(dag.TaskID(0)), MinFinish) {
		t.Fatal("placement after rollback failed")
	}
}

func TestComparators(t *testing.T) {
	fast := Candidate{Proc: 0, Finish: 5, Stage: 3}
	slow := Candidate{Proc: 1, Finish: 9, Stage: 1}
	if !MinFinish(fast, slow) {
		t.Fatal("MinFinish must prefer the earlier finish")
	}
	sp := StagePreserving(2)
	if !sp(slow, fast) {
		t.Fatal("StagePreserving must prefer the stage ≤ bound")
	}
	// Both within bound → lower stage wins; equal stages → earlier finish.
	a := Candidate{Proc: 0, Finish: 9, Stage: 1}
	b := Candidate{Proc: 1, Finish: 5, Stage: 2}
	if !sp(a, b) {
		t.Fatal("lower stage must win inside the bound")
	}
	c := Candidate{Proc: 0, Finish: 5, Stage: 1}
	if !sp(c, a) {
		t.Fatal("earlier finish must break stage ties")
	}
}

func TestMaxPredStage(t *testing.T) {
	g := chainAB()
	st := newState(t, g, 4, 0, 100)
	commit(t, st, 0, 0, 0, nil)
	st.MarkScheduled([]dag.TaskID{0})
	if got := st.MaxPredStage(1); got != 1 {
		t.Fatalf("MaxPredStage = %d", got)
	}
	if got := st.MaxPredStage(0); got != 0 {
		t.Fatalf("entry MaxPredStage = %d", got)
	}
}

func TestVulnCapDefault(t *testing.T) {
	g := chainAB()
	st, err := New(g, platform.Homogeneous(20, 1, 1), 3, 100, "x")
	if err != nil {
		t.Fatal(err)
	}
	if st.VulnCap != 5 {
		t.Fatalf("VulnCap = %d, want 20/4", st.VulnCap)
	}
	st2 := newState(t, g, 2, 1, 100)
	if st2.VulnCap != 2 {
		t.Fatalf("VulnCap floor = %d, want 2", st2.VulnCap)
	}
}

// randomGraph builds an n-task DAG with forward edges drawn at density 0.15.
func randomGraph(r *rng.Source, n int) *dag.Graph {
	g := dag.New("rand")
	for i := 0; i < n; i++ {
		g.AddTask("t", r.Uniform(0.5, 1.5))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(0.15) {
				g.MustAddEdge(dag.TaskID(i), dag.TaskID(j), r.Uniform(0.1, 1))
			}
		}
	}
	return g
}

// Property: on random instances, interleaving one-to-one and fallback via
// the public entry points always preserves claim disjointness per task.
func TestClaimDisjointnessProperty(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.IntN(15)
		g := randomGraph(r, n)
		eps := 1 + r.IntN(2)
		st, err := New(g, platform.Homogeneous(8, 1, 1), eps, 50, "x")
		if err != nil {
			t.Fatal(err)
		}
		for !st.Done() {
			chunk := st.PopChunk(8)
			for _, task := range chunk {
				pools := st.Pools(task)
				for c := 0; c <= eps; c++ {
					if !st.OneToOne(task, c, pools, MinFinish) {
						if err := st.Fallback(task, c, MinFinish); err != nil {
							t.Skip("infeasible instance")
						}
					}
				}
			}
			st.MarkScheduled(chunk)
		}
		for task := 0; task < n; task++ {
			for c1 := 0; c1 <= eps; c1++ {
				for c2 := c1 + 1; c2 <= eps; c2++ {
					if st.ClaimSet(dag.TaskID(task), c1).Intersects(st.ClaimSet(dag.TaskID(task), c2)) {
						t.Fatalf("trial %d: task %d claims of copies %d/%d overlap", trial, task, c1, c2)
					}
				}
			}
		}
	}
}

// stateCopy is an independent deep copy of everything a transaction
// covers: loads, claims, copyProcs rows, stages, reverse-mode support
// lists, placed replicas and the one-port timelines.
type stateCopy struct {
	sigma, cIn, cOut []float64
	claims, procs    []bitset.Set
	stage            []int
	supp             [][]suppPair
	replicas         []*schedule.Replica
	timelines        [][]timeline.Interval
}

func copyState(st *State) stateCopy {
	c := stateCopy{
		sigma: append([]float64(nil), st.Sigma...),
		cIn:   append([]float64(nil), st.CIn...),
		cOut:  append([]float64(nil), st.COut...),
		stage: append([]int(nil), st.stage...),
	}
	for t := 0; t < st.G.NumTasks(); t++ {
		c.procs = append(c.procs, append(bitset.Set(nil), st.copyProcs.At(t)...))
		for _, ref := range schedule.ReplicaRefs(dag.TaskID(t), st.Eps) {
			i := st.refIdx(ref.Task, ref.Copy)
			c.claims = append(c.claims, append(bitset.Set(nil), st.claims.At(i)...))
			c.supp = append(c.supp, append([]suppPair(nil), st.supp[i]...))
			var rep *schedule.Replica
			if r := st.Sched.Replica(ref); r != nil {
				cp := *r
				cp.In = append([]schedule.Comm(nil), r.In...)
				rep = &cp
			}
			c.replicas = append(c.replicas, rep)
		}
	}
	for u := 0; u < st.P.NumProcs(); u++ {
		pu := platform.ProcID(u)
		for _, tl := range []*timeline.Timeline{st.Sys.Comp(pu), st.Sys.Send(pu), st.Sys.Recv(pu)} {
			c.timelines = append(c.timelines, append([]timeline.Interval(nil), tl.Busy()...))
		}
	}
	return c
}

func requireState(t *testing.T, st *State, want stateCopy, what string) {
	t.Helper()
	if got := copyState(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: state diverged from the deep-copy oracle:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestTransactionMatchesDeepCopyOracle drives random single-task and window
// transactions, nested to depth 2 as reverse-mode lookahead nests its retry
// ladder inside a window, interleaved with OneToOne/Fallback placements.
// After every rollback the state must equal a deep copy taken before Try;
// after every keep, a deep copy taken as place returned.
func TestTransactionMatchesDeepCopyOracle(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 24; trial++ {
		g := randomGraph(r, 6+r.IntN(14))
		eps := 1 + r.IntN(2)
		p := platform.RandomHeterogeneous(r, 6+r.IntN(4), 0.5, 1, 0.5, 1, 10)
		st, err := New(g, p, eps, 1000, "x")
		if err != nil {
			t.Fatal(err)
		}
		st.ReverseMode = trial%2 == 1
		// place puts copies [0, n) of task through the one-to-one procedure
		// or the fallback, at random.
		place := func(task dag.TaskID, n int) {
			pools := st.Pools(task)
			for c := 0; c < n; c++ {
				if r.Bool(0.7) && st.OneToOne(task, c, pools, MinFinish) {
					continue
				}
				if err := st.Fallback(task, c, MinFinish); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		}
		// try runs body inside a transaction over tasks and keeps or rolls
		// back its work at random (a rollback is forced when body reports
		// its tasks incomplete), then checks the oracle and the rollback
		// count. It reports whether the work was kept.
		try := func(tasks []dag.TaskID, body func() (complete bool), what string) bool {
			begin := copyState(st)
			var end stateCopy
			var keep bool
			var rollbacks int64
			kept := st.Try(tasks, func() bool {
				keep = body() && r.Bool(0.5)
				if keep {
					end = copyState(st)
				}
				rollbacks = st.Phases.Rollbacks
				return keep
			})
			if kept != keep {
				t.Fatalf("%s: Try returned %t, place %t", what, kept, keep)
			}
			want, wantRollbacks := begin, rollbacks+1
			if kept {
				want, wantRollbacks = end, rollbacks
			}
			requireState(t, st, want, fmt.Sprintf("%s Try (kept %t)", what, kept))
			if st.Phases.Rollbacks != wantRollbacks {
				t.Fatalf("%s Try (kept %t) counted %d rollbacks", what, kept, st.Phases.Rollbacks-rollbacks)
			}
			return kept
		}
		placeTasks := func(tasks []dag.TaskID) {
			for _, task := range tasks {
				if r.Bool(0.5) && try([]dag.TaskID{task}, func() bool {
					n := 1 + r.IntN(st.Eps+1)
					place(task, n)
					return n == st.Eps+1
				}, "task") {
					continue
				}
				place(task, st.Eps+1)
			}
		}
		for !st.Done() {
			window := append([]dag.TaskID(nil), st.PopChunk(1+r.IntN(4))...)
			if r.Bool(0.5) {
				if !try(window, func() bool {
					placeTasks(window)
					return true
				}, "window") {
					placeTasks(window)
				}
			} else {
				placeTasks(window)
			}
			st.MarkScheduled(window)
		}
		if !st.Sched.Complete() {
			t.Fatalf("trial %d: schedule incomplete", trial)
		}
		if err := st.Sys.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDoneCounterEmptyGraph(t *testing.T) {
	// Regression: Done used to scan every task; the counter must agree on
	// the degenerate ends. dag.Validate rejects truly empty graphs before
	// New, so the zero-task case is the zero-value state: nothing left to
	// schedule, Done from the start.
	if _, err := New(dag.New("empty"), platform.Homogeneous(2, 1, 1), 0, 10, "x"); err == nil {
		t.Fatal("empty graph accepted by New (update this test: Done must hold immediately)")
	}
	st := &State{}
	if !st.Done() {
		t.Fatal("zero tasks must report Done immediately")
	}
	if st.ReadyCount() != 0 {
		t.Fatalf("zero-task state has %d ready tasks", st.ReadyCount())
	}
}

func TestDoneCounterFullyScheduled(t *testing.T) {
	g := chainAB()
	st := newState(t, g, 2, 0, 100)
	if st.Done() {
		t.Fatal("fresh state reports Done")
	}
	for !st.Done() {
		chunk := st.PopChunk(1)
		for _, task := range chunk {
			commit(t, st, task, 0, 0, nil)
		}
		st.MarkScheduled(chunk)
	}
	if !st.Done() {
		t.Fatal("fully scheduled graph must report Done")
	}
	if st.ReadyCount() != 0 {
		t.Fatalf("done state has %d ready tasks", st.ReadyCount())
	}
}

func TestPopChunkHeapDeterministicTieBreak(t *testing.T) {
	// Equal-priority entry tasks must pop in ascending task-ID order no
	// matter the heap's internal layout — the tie-break the former full
	// re-sort guaranteed and golden schedules depend on.
	g := dag.New("ties")
	for i := 0; i < 12; i++ {
		g.AddTask("t", 1) // identical works → identical priorities
	}
	st := newState(t, g, 4, 0, 100)
	var got []dag.TaskID
	for st.ReadyCount() > 0 {
		got = append(got, append([]dag.TaskID(nil), st.PopChunk(5)...)...)
	}
	if len(got) != 12 {
		t.Fatalf("popped %d tasks, want 12", len(got))
	}
	for i, task := range got {
		if task != dag.TaskID(i) {
			t.Fatalf("pop order %v: position %d is task %d, want %d", got, i, task, i)
		}
	}
}

func TestPopChunkMatchesSortedOrder(t *testing.T) {
	// Property check of the heap against the specification ("highest
	// priority first, ties to smaller ID"): random priorities via random
	// works, chunks of varying size, compared to an explicit sort.
	r := rng.New(99)
	g := dag.New("rand")
	const n = 40
	for i := 0; i < n; i++ {
		g.AddTask("t", float64(1+r.IntN(5))) // few distinct works → many ties
	}
	st := newState(t, g, 4, 0, 1000)
	want := make([]dag.TaskID, n)
	for i := range want {
		want[i] = dag.TaskID(i)
	}
	sort.SliceStable(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if st.Priority(a) != st.Priority(b) {
			return st.Priority(a) > st.Priority(b)
		}
		return a < b
	})
	var got []dag.TaskID
	sizes := []int{1, 7, 3, 40, 2}
	for i := 0; st.ReadyCount() > 0; i++ {
		got = append(got, append([]dag.TaskID(nil), st.PopChunk(sizes[i%len(sizes)])...)...)
	}
	if len(got) != n {
		t.Fatalf("popped %d tasks, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("position %d: got task %d, want %d", i, got[i], want[i])
		}
	}
}
