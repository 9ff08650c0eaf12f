package schedule

import (
	"math"

	"streamsched/internal/dag"
	"streamsched/internal/platform"
)

// Loads bundles the per-processor steady-state loads of §4: Sigma[u] is the
// computing load Σ_u (time to execute all replicas mapped on u for one data
// item), CIn[u] and COut[u] the per-item receive and send port occupancy.
type Loads struct {
	Sigma []float64
	CIn   []float64
	COut  []float64
}

// Loads computes the per-processor loads from the replica structure.
func (s *Schedule) Loads() Loads {
	m := s.P.NumProcs()
	l := Loads{
		Sigma: make([]float64, m),
		CIn:   make([]float64, m),
		COut:  make([]float64, m),
	}
	for _, r := range s.All() {
		l.Sigma[r.Proc] += s.P.ExecTime(s.G.Task(r.Ref.Task).Work, r.Proc)
		for _, c := range r.In {
			src := s.Replica(c.From)
			if src == nil || src.Proc == r.Proc {
				continue
			}
			dur := s.P.CommTime(c.Volume, src.Proc, r.Proc)
			l.CIn[r.Proc] += dur
			l.COut[src.Proc] += dur
		}
	}
	return l
}

// CycleTimes returns Δ_u = max(Σ_u, C_u^I, C_u^O) for every processor.
func (s *Schedule) CycleTimes() []float64 {
	l := s.Loads()
	out := make([]float64, len(l.Sigma))
	for u := range out {
		d := l.Sigma[u]
		if l.CIn[u] > d {
			d = l.CIn[u]
		}
		if l.COut[u] > d {
			d = l.COut[u]
		}
		out[u] = d
	}
	return out
}

// AchievedCycleTime returns max_u Δ_u — the smallest period the mapping can
// sustain. The schedule meets its throughput constraint iff this does not
// exceed Period.
func (s *Schedule) AchievedCycleTime() float64 {
	m := 0.0
	for _, d := range s.CycleTimes() {
		if d > m {
			m = d
		}
	}
	return m
}

// AchievedThroughput returns 1 / AchievedCycleTime (the paper's
// T = 1/max_u Δ_u). Returns +Inf for an empty schedule.
func (s *Schedule) AchievedThroughput() float64 {
	ct := s.AchievedCycleTime()
	if ct == 0 {
		return math.Inf(1)
	}
	return 1 / ct
}

// ProcessorUtilization returns U_P(u) = T·Σ_u for every processor (≤1 in a
// feasible schedule).
func (s *Schedule) ProcessorUtilization() []float64 {
	l := s.Loads()
	out := make([]float64, len(l.Sigma))
	for u := range out {
		out[u] = l.Sigma[u] / s.Period
	}
	return out
}

// StageNumbers computes the per-replica pipeline stage numbers (§4) in one
// pass over the tasks in topological order: entry-task replicas are in
// stage 1; every other replica r has S(r) = max over its incoming comms c
// of (S(source(c)) + η), with η = 0 when source and r are co-located and
// η = 1 otherwise. The slice is dense, indexed by Index(ref); unplaced
// replicas read 0.
func (s *Schedule) StageNumbers() []int {
	stages := make([]int, len(s.replicas)*(s.Eps+1))
	order, err := s.G.TopoOrder()
	if err != nil {
		panic(err)
	}
	for _, t := range order {
		for _, r := range s.replicas[t] {
			if r == nil {
				continue
			}
			st := 1
			for _, c := range r.In {
				src := s.Replica(c.From)
				if src == nil {
					continue
				}
				eta := 1
				if src.Proc == r.Proc {
					eta = 0
				}
				if v := stages[s.Index(c.From)] + eta; v > st {
					st = v
				}
			}
			stages[s.Index(r.Ref)] = st
		}
	}
	return stages
}

// Stages returns S, the total number of pipeline stages (max over replicas).
func (s *Schedule) Stages() int { return maxStage(s.StageNumbers()) }

// LatencyBound returns the paper's pipelined latency L = (2S−1)·Δ.
func (s *Schedule) LatencyBound() float64 { return s.latencyBound(s.Stages()) }

// maxStage returns S given the stage numbers of every replica.
func maxStage(stages []int) int {
	S := 0
	for _, v := range stages {
		S = max(S, v)
	}
	return S
}

// latencyBound returns (2S−1)·Δ for a stage count S.
func (s *Schedule) latencyBound(S int) float64 { return float64(2*S-1) * s.Period }

// CrossComms returns the number of inter-processor communications in the
// replica structure — the overhead metric the one-to-one mapping minimizes.
// §4.2: with Rule 2 and no throughput constraint it is at most e(ε+1) on
// series-parallel graphs, versus e(ε+1)² for full replication.
func (s *Schedule) CrossComms() int {
	n := 0
	for _, r := range s.All() {
		for _, c := range r.In {
			if src := s.Replica(c.From); src != nil && src.Proc != r.Proc {
				n++
			}
		}
	}
	return n
}

// TotalComms returns the number of replica-to-replica communications
// (including co-located, zero-cost ones).
func (s *Schedule) TotalComms() int {
	n := 0
	for _, r := range s.All() {
		n += len(r.In)
	}
	return n
}

// ProcsUsed returns how many processors host at least one replica.
func (s *Schedule) ProcsUsed() int {
	used := make([]bool, s.P.NumProcs())
	for _, r := range s.All() {
		used[r.Proc] = true
	}
	n := 0
	for _, u := range used {
		if u {
			n++
		}
	}
	return n
}

// ValidUnderFailures reports whether the schedule still delivers a valid
// result for every exit task when the processors for which failed returns
// true have crashed (fail-silent/fail-stop, §1). A replica is valid iff its
// processor is alive and, for every predecessor task, at least one incoming
// communication originates from a valid replica.
func (s *Schedule) ValidUnderFailures(failed func(platform.ProcID) bool) bool {
	valid := s.ReplicaValidity(failed)
	for _, t := range s.G.Exits() {
		ok := false
		for _, r := range s.replicas[t] {
			if r != nil && valid[r.Ref] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// ReplicaValidity computes per-replica validity under a failure predicate.
func (s *Schedule) ReplicaValidity(failed func(platform.ProcID) bool) map[Ref]bool {
	valid := make(map[Ref]bool)
	order, err := s.G.TopoOrder()
	if err != nil {
		panic(err)
	}
	for _, t := range order {
		preds := s.G.Pred(t)
		for _, r := range s.replicas[t] {
			if r == nil || failed(r.Proc) {
				continue
			}
			ok := true
			for _, pe := range preds {
				covered := false
				for _, c := range r.In {
					if c.From.Task == pe.From && valid[c.From] {
						covered = true
						break
					}
				}
				if !covered {
					ok = false
					break
				}
			}
			if ok {
				valid[r.Ref] = true
			}
		}
	}
	return valid
}

// FailureSets enumerates every subset of processors of size ≤ k and calls
// fn with each; fn returning false stops the enumeration early and makes
// FailureSets return false. Used by the exhaustive fault-tolerance checks.
func FailureSets(m, k int, fn func(set []platform.ProcID) bool) bool {
	set := make([]platform.ProcID, 0, k)
	var rec func(start, left int) bool
	rec = func(start, left int) bool {
		if !fn(set) {
			return false
		}
		if left == 0 {
			return true
		}
		for u := start; u < m; u++ {
			set = append(set, platform.ProcID(u))
			if !rec(u+1, left-1) {
				return false
			}
			set = set[:len(set)-1]
		}
		return true
	}
	return rec(0, k)
}

// ToleratesAllFailures exhaustively verifies that the schedule delivers a
// valid result under every failure set of size ≤ ε. Cost is C(m, ≤ε); fine
// for m = 20, ε ≤ 3 (≈1.4k subsets).
func (s *Schedule) ToleratesAllFailures() bool {
	return FailureSets(s.P.NumProcs(), s.Eps, func(set []platform.ProcID) bool {
		down := make(map[platform.ProcID]bool, len(set))
		for _, u := range set {
			down[u] = true
		}
		return s.ValidUnderFailures(func(u platform.ProcID) bool { return down[u] })
	})
}

// ReplicaRefs returns the refs of all ε+1 copies of task t.
func ReplicaRefs(t dag.TaskID, eps int) []Ref {
	out := make([]Ref, eps+1)
	for i := range out {
		out[i] = Ref{Task: t, Copy: i}
	}
	return out
}
