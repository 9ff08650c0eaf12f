package baselines

// Related-work list schedulers (§3 of the paper). The surveyed heuristics
// target homogeneous platforms without port constraints; here they are
// re-hosted on the paper's platform model (heterogeneous speeds, one-port
// transfers, optional period budget) so they compare fairly against
// LTF/R-LTF. Both schedule a single copy of each task (ε = 0) — none of the
// surveyed algorithms replicates:
//
//   - ETF (Earliest Task First, Hwang et al. [6], the engine inside the
//     TDA algorithm [11]): repeatedly commit the (ready task, processor)
//     pair with the earliest start time;
//   - HEFT (Topcuoglu et al. [9], the priority scheme the paper's tℓ+bℓ
//     levels come from): tasks in decreasing upward-rank order, each on the
//     processor minimizing its finish time.

import (
	"math"

	"streamsched/internal/dag"
	"streamsched/internal/infeas"
	"streamsched/internal/oneport"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
)

// UnconstrainedPeriod returns a period no schedule of g on p can exceed —
// the "no throughput requirement" budget for the related-work heuristics.
func UnconstrainedPeriod(g *dag.Graph, p *platform.Platform) float64 {
	return g.TotalWork()/p.MinSpeed() + g.TotalVolume()/p.MinBandwidth() + 1
}

// listState carries the shared machinery of the two list schedulers.
type listState struct {
	g      *dag.Graph
	p      *platform.Platform
	period float64
	sys    *oneport.System
	sched  *schedule.Schedule
	sigma  []float64
	cin    []float64
	cout   []float64
}

func newListState(g *dag.Graph, p *platform.Platform, period float64, name string) (*listState, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &listState{
		g:      g,
		p:      p,
		period: period,
		sys:    oneport.NewSystem(p),
		sched:  schedule.New(g, p, 0, period, name),
		sigma:  make([]float64, p.NumProcs()),
		cin:    make([]float64, p.NumProcs()),
		cout:   make([]float64, p.NumProcs()),
	}, nil
}

// feasible applies condition (1) for a single-copy placement.
func (ls *listState) feasible(t dag.TaskID, u platform.ProcID) bool {
	const tol = 1e-9
	if ls.sigma[u]+ls.p.ExecTime(ls.g.Task(t).Work, u) > ls.period+tol {
		return false
	}
	addIn := 0.0
	for _, e := range ls.g.Pred(t) {
		src := ls.sched.Replica(schedule.Ref{Task: e.From})
		if src.Proc == u {
			continue
		}
		d := ls.p.CommTime(e.Volume, src.Proc, u)
		addIn += d
		if ls.cout[src.Proc]+d > ls.period+tol {
			return false
		}
	}
	return ls.cin[u]+addIn <= ls.period+tol
}

// trial returns the start and finish a placement of t on u would get.
func (ls *listState) trial(t dag.TaskID, u platform.ProcID) (start, finish float64) {
	m := ls.sys.Mark()
	ready := 0.0
	for _, e := range ls.g.Pred(t) {
		src := ls.sched.Replica(schedule.Ref{Task: e.From})
		_, fin := ls.sys.Transfer(src.Proc, u, e.Volume, src.Finish)
		if fin > ready {
			ready = fin
		}
	}
	start, finish = ls.sys.Compute(u, ls.g.Task(t).Work, ready)
	ls.sys.Rollback(m)
	return start, finish
}

// commit places t on u for real.
func (ls *listState) commit(t dag.TaskID, u platform.ProcID) {
	ready := 0.0
	ref := schedule.Ref{Task: t}
	var in []schedule.Comm
	for _, e := range ls.g.Pred(t) {
		src := ls.sched.Replica(schedule.Ref{Task: e.From})
		cs, cf := ls.sys.Transfer(src.Proc, u, e.Volume, src.Finish)
		in = append(in, schedule.Comm{From: src.Ref, Volume: e.Volume, Start: cs, Finish: cf})
		if cf > ready {
			ready = cf
		}
		if src.Proc != u {
			d := cf - cs
			ls.cin[u] += d
			ls.cout[src.Proc] += d
		}
	}
	start, finish := ls.sys.Compute(u, ls.g.Task(t).Work, ready)
	ls.sigma[u] += finish - start
	ls.sched.AddReplica(&schedule.Replica{Ref: ref, Proc: u, Start: start, Finish: finish, In: in})
}

// ETF schedules g with the Earliest-Task-First policy under the period
// budget (use UnconstrainedPeriod for the heuristic's native setting).
func ETF(g *dag.Graph, p *platform.Platform, period float64) (*schedule.Schedule, error) {
	ls, err := newListState(g, p, period, "ETF")
	if err != nil {
		return nil, err
	}
	predLeft := make([]int, g.NumTasks())
	ready := []dag.TaskID{}
	for i := 0; i < g.NumTasks(); i++ {
		predLeft[i] = g.InDegree(dag.TaskID(i))
		if predLeft[i] == 0 {
			ready = append(ready, dag.TaskID(i))
		}
	}
	for len(ready) > 0 {
		bestStart := math.Inf(1)
		bestIdx, bestProc := -1, platform.ProcID(0)
		for i, t := range ready {
			for u := 0; u < p.NumProcs(); u++ {
				pu := platform.ProcID(u)
				if !ls.feasible(t, pu) {
					continue
				}
				start, _ := ls.trial(t, pu)
				if start < bestStart || (start == bestStart && (bestIdx < 0 || t < ready[bestIdx])) {
					bestStart, bestIdx, bestProc = start, i, pu
				}
			}
		}
		if bestIdx < 0 {
			return nil, infeas.Newf(infeas.ReasonPeriodExceeded, period,
				"ETF cannot place any ready task")
		}
		t := ready[bestIdx]
		ready = append(ready[:bestIdx], ready[bestIdx+1:]...)
		ls.commit(t, bestProc)
		for _, e := range g.Succ(t) {
			predLeft[e.To]--
			if predLeft[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	return ls.sched, nil
}

// HEFT schedules g in decreasing upward-rank order, each task on the
// processor with the earliest finish time, under the period budget.
func HEFT(g *dag.Graph, p *platform.Platform, period float64) (*schedule.Schedule, error) {
	ls, err := newListState(g, p, period, "HEFT")
	if err != nil {
		return nil, err
	}
	meanS := p.MeanSpeed()
	meanB := p.MeanBandwidth()
	rank := g.BottomLevels(
		func(t dag.Task) float64 { return t.Work / meanS },
		func(e dag.Edge) float64 {
			if math.IsInf(meanB, 1) {
				return 0
			}
			return e.Volume / meanB
		},
	)
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	// Stable sort by decreasing rank, topological order breaking ties —
	// rank order is consistent with precedence for bottom levels.
	tasks := append([]dag.TaskID(nil), order...)
	for i := 1; i < len(tasks); i++ {
		for j := i; j > 0 && rank[tasks[j]] > rank[tasks[j-1]]; j-- {
			tasks[j], tasks[j-1] = tasks[j-1], tasks[j]
		}
	}
	for _, t := range tasks {
		bestFinish := math.Inf(1)
		bestProc := platform.ProcID(-1)
		for u := 0; u < p.NumProcs(); u++ {
			pu := platform.ProcID(u)
			if !ls.feasible(t, pu) {
				continue
			}
			_, finish := ls.trial(t, pu)
			if finish < bestFinish {
				bestFinish, bestProc = finish, pu
			}
		}
		if bestProc < 0 {
			return nil, infeas.AtTask(infeas.ReasonPeriodExceeded, t, -1, period)
		}
		ls.commit(t, bestProc)
	}
	return ls.sched, nil
}
