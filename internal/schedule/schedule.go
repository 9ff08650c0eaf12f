// Package schedule defines the result type shared by every scheduler in the
// repository: a replicated, pipelined mapping of a workflow graph onto a
// heterogeneous one-port platform.
//
// A Schedule records, for each task t, its ε+1 replicas B(t) = {t⁽¹⁾..t⁽ᵉ⁺¹⁾}
// (§2 of the paper), the processor each replica runs on (the mapping matrix
// X), the static start/finish times of one pipelined iteration, and — the
// part that drives both reliability and latency — the exact set of
// replica-to-replica communications chosen by the mapping procedure.
// From that structure the package derives the paper's metrics: per-processor
// computing load Σ_u and communication loads C_u^I / C_u^O, the achieved
// cycle time Δ_u = max(Σ_u, C_u^I, C_u^O), pipeline stages S and the latency
// bound L = (2S−1)·Δ, plus the reliability predicate (does a valid result
// survive any ε processor failures?).
//
// A Schedule crosses process boundaries as compact interchange JSON:
// MarshalJSON appends it directly, with encoding/json's exact bytes, and
// LoadJSON reads that canonical form in one pass, falling back to
// encoding/json for any other spelling.
package schedule

import (
	"fmt"

	"streamsched/internal/dag"
	"streamsched/internal/platform"
)

// Ref identifies one replica: copy Copy of task Task (Copy in [0, ε]).
type Ref struct {
	Task dag.TaskID
	Copy int
}

func (r Ref) String() string { return fmt.Sprintf("t%d(%d)", r.Task, r.Copy+1) }

// Comm is one replica-to-replica communication chosen by the mapping.
type Comm struct {
	From   Ref     // source replica
	Volume float64 // data volume of the underlying graph edge
	// Start/Finish give the transfer window on the source's send port and
	// destination's receive port; Start == Finish for co-located replicas.
	Start, Finish float64
}

// Replica is one scheduled copy of a task.
type Replica struct {
	Ref    Ref
	Proc   platform.ProcID
	Start  float64
	Finish float64
	// In holds the incoming communications this replica consumes, at least
	// one per predecessor task (one with the one-to-one mapping, up to ε+1
	// with the fallback's full replication).
	In []Comm
}

// Schedule is a complete replicated mapping. Build it with New, add replicas
// with AddReplica, then query the derived metrics.
type Schedule struct {
	G   *dag.Graph
	P   *platform.Platform
	Eps int // ε: number of tolerated failures; ε+1 replicas per task
	// Period is the enforced iteration period Δ = 1/T.
	Period float64
	// Algorithm names the producer ("LTF", "R-LTF", ...), for reports.
	Algorithm string

	replicas [][]*Replica // [task][copy]
}

// New returns an empty schedule shell.
func New(g *dag.Graph, p *platform.Platform, eps int, period float64, algorithm string) *Schedule {
	if eps < 0 {
		panic("schedule: negative ε")
	}
	if period <= 0 {
		panic("schedule: non-positive period")
	}
	reps := make([][]*Replica, g.NumTasks())
	for i := range reps {
		reps[i] = make([]*Replica, eps+1)
	}
	return &Schedule{G: g, P: p, Eps: eps, Period: period, Algorithm: algorithm, replicas: reps}
}

// AddReplica registers a placed replica. It panics on duplicate placement or
// out-of-range refs — scheduler bugs, not runtime conditions.
func (s *Schedule) AddReplica(r *Replica) {
	if r.Ref.Copy < 0 || r.Ref.Copy > s.Eps {
		panic(fmt.Sprintf("schedule: copy %d out of range [0,%d]", r.Ref.Copy, s.Eps))
	}
	if s.replicas[r.Ref.Task][r.Ref.Copy] != nil {
		panic(fmt.Sprintf("schedule: replica %v placed twice", r.Ref))
	}
	s.replicas[r.Ref.Task][r.Ref.Copy] = r
}

// Index returns ref's position in the dense per-replica slices such as
// StageNumbers: task×(ε+1)+copy.
func (s *Schedule) Index(ref Ref) int { return int(ref.Task)*(s.Eps+1) + ref.Copy }

// Replica returns the placed replica for ref, or nil if not (yet) placed.
func (s *Schedule) Replica(ref Ref) *Replica {
	return s.replicas[ref.Task][ref.Copy]
}

// RemoveReplica withdraws a placed replica (scheduler rollback support).
// It panics if the replica is absent.
func (s *Schedule) RemoveReplica(ref Ref) {
	if s.replicas[ref.Task][ref.Copy] == nil {
		panic(fmt.Sprintf("schedule: removing absent replica %v", ref))
	}
	s.replicas[ref.Task][ref.Copy] = nil
}

// Replicas returns the ε+1 replicas of task t (entries may be nil while the
// schedule is under construction).
func (s *Schedule) Replicas(t dag.TaskID) []*Replica { return s.replicas[t] }

// All returns every placed replica, tasks in ID order, copies in order.
// Metric queries (Makespan, Stages, CrossComms) run once per solver probe,
// so the slice is sized up front.
func (s *Schedule) All() []*Replica {
	out := make([]*Replica, 0, len(s.replicas)*(s.Eps+1))
	for _, copies := range s.replicas {
		for _, r := range copies {
			if r != nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// OnProc returns the replicas placed on processor u, in start-time order.
func (s *Schedule) OnProc(u platform.ProcID) []*Replica {
	var out []*Replica
	for _, r := range s.All() {
		if r.Proc == u {
			out = append(out, r)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Start < out[j-1].Start; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Complete reports whether every task has all ε+1 replicas placed.
func (s *Schedule) Complete() bool {
	for _, copies := range s.replicas {
		for _, r := range copies {
			if r == nil {
				return false
			}
		}
	}
	return true
}

// Mapping returns the v×m binary mapping matrix X of §2: X[i][u] == 1 iff a
// copy of task i is mapped on processor u.
func (s *Schedule) Mapping() [][]int {
	x := make([][]int, s.G.NumTasks())
	for i := range x {
		x[i] = make([]int, s.P.NumProcs())
		for _, r := range s.replicas[i] {
			if r != nil {
				x[i][r.Proc] = 1
			}
		}
	}
	return x
}

// Makespan returns the latest replica finish time of the static (single
// iteration) schedule.
func (s *Schedule) Makespan() float64 {
	m := 0.0
	for _, r := range s.All() {
		if r.Finish > m {
			m = r.Finish
		}
	}
	return m
}

// Throughput returns the enforced throughput T = 1/Δ.
func (s *Schedule) Throughput() float64 { return 1 / s.Period }

func (s *Schedule) String() string {
	return fmt.Sprintf("%s schedule: v=%d ε=%d Δ=%.4g S=%d L=%.4g",
		s.Algorithm, s.G.NumTasks(), s.Eps, s.Period, s.Stages(), s.LatencyBound())
}
