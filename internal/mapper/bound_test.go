package mapper

import (
	"testing"

	"streamsched/internal/dag"
	"streamsched/internal/platform"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
)

// The candidate bounds are lower bounds on random mapper states, in both
// construction modes: for every admissible processor, headBound's stage
// and finish are at most those of the candidate head selection and the
// trial then yield, and each trial finishes no earlier than its own bound
// (the latest head or source finish plus transfer time, plus execution).
// Every first copy's trial also finishes where committing it does, though
// the trial reserves neither its last transfer nor its compute slot. Half
// the graphs carry zero-volume edges: such a transfer completes as its
// source finishes, however busy the ports it would use are. The platforms
// range from light to heavy communication, so that ports are often busy.
func TestCandidateBoundsAreLowerBounds(t *testing.T) {
	r := rng.New(2026)
	var headChecks, sourceChecks, commitChecks int
trials:
	for trial := 0; trial < 96; trial++ {
		eps := r.IntN(3)
		m := eps + 2 + r.IntN(6)
		g := randomGraphWithPrecedence(r, 5+r.IntN(20), []float64{0, 0.3}[trial/2%2])
		volumeScale := []float64{10, 1, 0.3}[trial/4%3]
		st, err := New(g, platform.RandomHeterogeneous(r, m, 0.5, 1, 0.5, 1, volumeScale), eps, 1000, "x")
		if err != nil {
			t.Fatal(err)
		}
		st.ReverseMode = trial%2 == 1
		for !st.Done() {
			chunk := st.PopChunk(m)
			for _, task := range chunk {
				pools := st.Pools(task)
				for c := 0; c <= eps; c++ {
					h, s, k := checkBounds(t, st, task, c, pools)
					headChecks, sourceChecks, commitChecks = headChecks+h, sourceChecks+s, commitChecks+k
					if !st.OneToOne(task, c, pools, MinFinish) {
						if err := st.Fallback(task, c, MinFinish); err != nil {
							continue trials // the discipline ran out of processors
						}
					}
				}
			}
			st.MarkScheduled(chunk)
		}
	}
	if headChecks < 700 || sourceChecks < 700 || commitChecks < 250 {
		t.Fatalf("checked only %d head, %d source and %d commit candidates", headChecks, sourceChecks, commitChecks)
	}
}

// checkBounds checks the bounds of copy c of task on every processor
// outside the sibling vulnerabilities, and returns how many head, source
// and commit candidates it checked.
func checkBounds(t *testing.T, st *State, task dag.TaskID, c int, pools [][]schedule.Ref) (heads, sources, commits int) {
	t.Helper()
	sibV := st.siblingVuln(task, c)
	all := append([]schedule.Ref(nil), st.AllSources(task)...)
	chain := true
	for _, pool := range pools {
		chain = chain && len(pool) > 0
	}
	for u := 0; u < st.P.NumProcs(); u++ {
		pu := platform.ProcID(u)
		if sibV.Contains(u) {
			continue
		}
		exec := st.execTime(task, pu)
		if cand, ok, _ := st.evalCandidate(task, pu, all, 0, &incumbent{better: MinFinish}); ok {
			lb := 0.0
			for _, src := range all {
				rep := st.Sched.Replica(src)
				lb = max(lb, rep.Finish+st.P.CommTime(st.volume(src.Task, task), rep.Proc, pu))
			}
			if cand.Finish < lb+exec {
				t.Fatalf("task %d copy %d on %d: full-replication trial finishes at %v, before its bound %v", task, c, u, cand.Finish, lb+exec)
			}
			sources++
			if c == 0 {
				st.Try([]dag.TaskID{task}, func() bool {
					if rep := st.CommitPlace(task, c, cand); rep.Finish != cand.Finish {
						t.Fatalf("task %d on %d: trial finish %v, commit %v", task, u, cand.Finish, rep.Finish)
					}
					return false
				})
				commits++
			}
		}
		if !chain {
			continue
		}
		bound := st.headBound(task, pu, pools)
		var lb float64
		var ok bool
		if st.ReverseMode {
			lb, ok = st.headsReverse(task, c, pu, pools)
		} else {
			lb, ok = st.headsForward(task, pu, pools, sibV)
		}
		if !ok {
			continue
		}
		cand, ok, _ := st.evalCandidate(task, pu, append([]schedule.Ref(nil), st.candHeads...), lb, &incumbent{better: MinFinish})
		if !ok {
			continue
		}
		if bound.Proc != pu || bound.Stage > cand.Stage || bound.Finish > cand.Finish {
			t.Fatalf("task %d copy %d on %d: head bound %+v above the candidate %+v", task, c, u, bound, cand)
		}
		if cand.Finish < lb+exec {
			t.Fatalf("task %d copy %d on %d: chain trial finishes at %v, before its heads' bound %v", task, c, u, cand.Finish, lb+exec)
		}
		heads++
	}
	return heads, sources, commits
}

// The Better contract: growing a candidate's Stage or Finish never makes
// a comparator prefer it more, and each comparator is a strict total order
// on candidates of distinct processors. Small integer keys make ties
// common, so every tie-break is exercised.
func TestComparatorsHonourBetterContract(t *testing.T) {
	r := rng.New(9)
	draw := func() Candidate {
		return Candidate{Proc: platform.ProcID(r.IntN(4)), Stage: 1 + r.IntN(4), Finish: float64(r.IntN(4))}
	}
	for _, c := range []struct {
		name   string
		better Better
	}{
		{"MinFinish", MinFinish},
		{"StagePreserving(1)", StagePreserving(1)},
		{"StagePreserving(2)", StagePreserving(2)},
		{"StagePreserving(4)", StagePreserving(4)},
	} {
		for i := 0; i < 20000; i++ {
			a, b, x := draw(), draw(), draw()
			grown := a
			grown.Stage += r.IntN(3)
			grown.Finish += float64(r.IntN(3))
			if c.better(grown, b) && !c.better(a, b) {
				t.Fatalf("%s prefers %+v to %+v but not %+v, which it grew from", c.name, grown, b, a)
			}
			if a.Proc == b.Proc {
				continue
			}
			if c.better(a, b) == c.better(b, a) {
				t.Fatalf("%s: %+v and %+v are not strictly ordered", c.name, a, b)
			}
			if c.better(a, b) && c.better(b, x) && !c.better(a, x) {
				t.Fatalf("%s is not transitive on %+v, %+v, %+v", c.name, a, b, x)
			}
		}
	}
}

// A zero-volume transfer completes as its source finishes, even while the
// ports it would use are busy, so the trial bound must not charge it the
// port wait head selection prices it at. Here b finishes at 5 on P0, whose
// send port carries a→c over [1,7]: head selection prices the
// zero-volume b→d onto P1 and P2 at 7, yet d can run on either at [5,6],
// which beats d on the slow P0 at [5,7].
func TestTrialBoundOfZeroVolumeHead(t *testing.T) {
	g := dag.New("precedence")
	a := g.AddTask("a", 0.5)
	b := g.AddTask("b", 2)
	c := g.AddTask("c", 1)
	d := g.AddTask("d", 1)
	g.MustAddEdge(a, c, 6)
	g.MustAddEdge(b, d, 0)
	p := platform.New([]float64{0.5, 1, 1}, [][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}})
	st, err := New(g, p, 0, 100, "test")
	if err != nil {
		t.Fatal(err)
	}
	commit(t, st, a, 0, 0, nil)
	commit(t, st, b, 0, 0, nil)
	commit(t, st, c, 0, 1, []schedule.Ref{{Task: a}})
	st.MarkScheduled([]dag.TaskID{a, b, c})
	if !st.OneToOne(d, 0, st.Pools(d), MinFinish) {
		t.Fatal("one-to-one placement of d failed")
	}
	if rep := st.Sched.Replica(schedule.Ref{Task: d}); rep.Proc != 1 || rep.Finish != 6 {
		t.Fatalf("d placed on %d finishing at %v, want 1 at 6", rep.Proc, rep.Finish)
	}
}
