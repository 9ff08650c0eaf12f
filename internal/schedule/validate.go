package schedule

import (
	"fmt"
	"slices"
	"sort"

	"streamsched/internal/dag"
)

// tolerance for floating-point comparisons in validation.
const tol = 1e-6

// Validate audits the schedule against every model constraint. It is the
// single source of truth used by tests and by the CLI's --check flag:
//
//  1. completeness — ε+1 replicas per task;
//  2. placement — replicas of one task on pairwise distinct processors
//     (one crash must not take out two copies);
//  3. communication coverage — each replica of a non-entry task receives
//     from at least one replica of every predecessor task;
//  4. causality — transfers start after their source replica finishes and
//     end before the consumer starts; co-located comms are instantaneous;
//  5. transfer pricing — cross-processor windows last volume/bandwidth;
//  6. throughput — Σ_u, C_u^I, C_u^O all fit within the period;
//  7. one-port — per processor, compute intervals are disjoint, send
//     windows are disjoint, and receive windows are disjoint;
//  8. reliability — every failure scenario of size ≤ ε still yields a
//     valid result (exhaustive).
type ValidateOptions struct {
	// SkipThroughput disables the load-vs-period check, for schedules
	// produced by unconstrained baselines.
	SkipThroughput bool
}

// Validate runs the full audit with default options.
func (s *Schedule) Validate() error { return s.ValidateOpts(ValidateOptions{}) }

// ValidateOpts runs the audit with explicit options.
func (s *Schedule) ValidateOpts(opts ValidateOptions) error {
	// 1. completeness
	for t := range s.replicas {
		for c, r := range s.replicas[t] {
			if r == nil {
				return fmt.Errorf("schedule: task %d copy %d not placed", t, c)
			}
			if r.Ref.Task != dag.TaskID(t) || r.Ref.Copy != c {
				return fmt.Errorf("schedule: replica registered under wrong slot: %v at [%d][%d]", r.Ref, t, c)
			}
		}
	}
	// 2. distinct processors per replica set
	for t := range s.replicas {
		seen := map[int]bool{}
		for _, r := range s.replicas[t] {
			if seen[int(r.Proc)] {
				return fmt.Errorf("schedule: task %d has two replicas on processor %d", t, r.Proc)
			}
			seen[int(r.Proc)] = true
		}
	}
	// 3-5. per-replica communication structure
	for _, r := range s.All() {
		task := r.Ref.Task
		preds := s.G.Pred(task)
		for _, pe := range preds {
			found := false
			for _, c := range r.In {
				if c.From.Task == pe.From {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("schedule: replica %v misses input from predecessor task %d", r.Ref, pe.From)
			}
		}
		for _, c := range r.In {
			// each comm must correspond to a graph edge
			ok := false
			var vol float64
			for _, pe := range preds {
				if pe.From == c.From.Task {
					ok = true
					vol = pe.Volume
				}
			}
			if !ok {
				return fmt.Errorf("schedule: replica %v has comm from non-predecessor %v", r.Ref, c.From)
			}
			if c.Volume != vol {
				return fmt.Errorf("schedule: comm %v→%v volume %v, edge says %v", c.From, r.Ref, c.Volume, vol)
			}
			src := s.Replica(c.From)
			if src == nil {
				return fmt.Errorf("schedule: comm source %v not placed", c.From)
			}
			if c.Start < src.Finish-tol {
				return fmt.Errorf("schedule: comm %v→%v starts %.6g before source finish %.6g", c.From, r.Ref, c.Start, src.Finish)
			}
			if r.Start < c.Finish-tol {
				return fmt.Errorf("schedule: replica %v starts %.6g before input comm finish %.6g", r.Ref, r.Start, c.Finish)
			}
			wantDur := s.P.CommTime(c.Volume, src.Proc, r.Proc)
			if d := c.Finish - c.Start; d < wantDur-tol || d > wantDur+tol {
				return fmt.Errorf("schedule: comm %v→%v lasts %.6g, want %.6g", c.From, r.Ref, d, wantDur)
			}
		}
		// replica duration must match work/speed
		wantDur := s.P.ExecTime(s.G.Task(task).Work, r.Proc)
		if d := r.Finish - r.Start; d < wantDur-tol || d > wantDur+tol {
			return fmt.Errorf("schedule: replica %v runs %.6g, want %.6g", r.Ref, d, wantDur)
		}
	}
	// 6. throughput feasibility
	if !opts.SkipThroughput {
		l := s.Loads()
		for u := range l.Sigma {
			if l.Sigma[u] > s.Period+tol {
				return fmt.Errorf("schedule: Σ_%d = %.6g exceeds period %.6g", u, l.Sigma[u], s.Period)
			}
			if l.CIn[u] > s.Period+tol {
				return fmt.Errorf("schedule: C^I_%d = %.6g exceeds period %.6g", u, l.CIn[u], s.Period)
			}
			if l.COut[u] > s.Period+tol {
				return fmt.Errorf("schedule: C^O_%d = %.6g exceeds period %.6g", u, l.COut[u], s.Period)
			}
		}
	}
	// 7. one-port consistency
	if err := s.checkOnePort(); err != nil {
		return err
	}
	// 8. reliability
	if !s.ToleratesAllFailures() {
		return fmt.Errorf("schedule: not %d-fault tolerant", s.Eps)
	}
	return nil
}

type window struct {
	start, end float64
	what       string
}

// checkDisjoint reports the first overlap among one resource's windows.
// An empty window, such as a zero-volume transfer's, occupies nothing: the
// one-port layer reserves no empty interval, and the simulator delivers a
// zero-volume transfer at once.
func checkDisjoint(kind string, u int, ws []window) error {
	ws = slices.DeleteFunc(ws, func(w window) bool { return w.end <= w.start })
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
	for i := 1; i < len(ws); i++ {
		if ws[i].start < ws[i-1].end-tol {
			return fmt.Errorf("schedule: proc %d %s overlap: %s [%.6g,%.6g) vs %s [%.6g,%.6g)",
				u, kind, ws[i-1].what, ws[i-1].start, ws[i-1].end, ws[i].what, ws[i].start, ws[i].end)
		}
	}
	return nil
}

func (s *Schedule) checkOnePort() error {
	m := s.P.NumProcs()
	comp := make([][]window, m)
	send := make([][]window, m)
	recv := make([][]window, m)
	for _, r := range s.All() {
		comp[r.Proc] = append(comp[r.Proc], window{r.Start, r.Finish, r.Ref.String()})
		for _, c := range r.In {
			src := s.Replica(c.From)
			if src == nil || src.Proc == r.Proc {
				continue
			}
			w := window{c.Start, c.Finish, fmt.Sprintf("%v→%v", c.From, r.Ref)}
			send[src.Proc] = append(send[src.Proc], w)
			recv[r.Proc] = append(recv[r.Proc], w)
		}
	}
	for u := 0; u < m; u++ {
		if err := checkDisjoint("compute", u, comp[u]); err != nil {
			return err
		}
		if err := checkDisjoint("send", u, send[u]); err != nil {
			return err
		}
		if err := checkDisjoint("recv", u, recv[u]); err != nil {
			return err
		}
	}
	return nil
}
