package schedule

// JSON serialization of schedules: the interchange format a downstream
// deployment would consume (which replica of which task runs where and
// when, and which transfers feed it). The graph and platform are referenced
// by summary only — they are inputs, not outputs, of the scheduler.

import (
	"encoding/json"
	"fmt"
	"math"

	"streamsched/internal/dag"
	"streamsched/internal/platform"
)

// jsonSchedule is the serialized form.
type jsonSchedule struct {
	Algorithm string        `json:"algorithm"`
	Eps       int           `json:"eps"`
	Period    float64       `json:"period"`
	Graph     string        `json:"graph"`
	Tasks     int           `json:"tasks"`
	Procs     int           `json:"procs"`
	Stages    int           `json:"stages"`
	Latency   float64       `json:"latencyBound"`
	Replicas  []jsonReplica `json:"replicas"`
}

type jsonReplica struct {
	Task   int        `json:"task"`
	Name   string     `json:"name"`
	Copy   int        `json:"copy"`
	Proc   int        `json:"proc"`
	Start  float64    `json:"start"`
	Finish float64    `json:"finish"`
	Stage  int        `json:"stage"`
	In     []jsonComm `json:"in,omitempty"`
}

type jsonComm struct {
	FromTask int     `json:"fromTask"`
	FromCopy int     `json:"fromCopy"`
	Volume   float64 `json:"volume"`
	Start    float64 `json:"start"`
	Finish   float64 `json:"finish"`
}

// MarshalJSON renders the schedule in its interchange form: compact JSON
// from one json.Marshal of the serialized form, whose stage numbers, S and
// latency bound all come from a single StageNumbers pass. The bytes are
// already what json.Marshal(s) returns — its re-scan of a Marshaler's
// output leaves compact, escaped JSON as it is — so a service can write
// them verbatim; json.Indent them for human readers.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	stages := s.StageNumbers()
	S := maxStage(stages)
	out := jsonSchedule{
		Algorithm: s.Algorithm,
		Eps:       s.Eps,
		Period:    s.Period,
		Graph:     s.G.Name(),
		Tasks:     s.G.NumTasks(),
		Procs:     s.P.NumProcs(),
		Stages:    S,
		Latency:   s.latencyBound(S),
	}
	for _, r := range s.All() {
		jr := jsonReplica{
			Task:   int(r.Ref.Task),
			Name:   s.G.Task(r.Ref.Task).Name,
			Copy:   r.Ref.Copy,
			Proc:   int(r.Proc),
			Start:  r.Start,
			Finish: r.Finish,
			Stage:  stages[s.Index(r.Ref)],
		}
		for _, c := range r.In {
			jr.In = append(jr.In, jsonComm{
				FromTask: int(c.From.Task),
				FromCopy: c.From.Copy,
				Volume:   c.Volume,
				Start:    c.Start,
				Finish:   c.Finish,
			})
		}
		out.Replicas = append(out.Replicas, jr)
	}
	return json.Marshal(out)
}

// LoadJSON reconstructs a schedule previously serialized with MarshalJSON,
// re-binding it to the given graph and platform (which must match the
// serialized dimensions). The structure is checked before anything is
// built from it, so untrusted input yields an error, never a panic or an
// allocation sized by an unchecked field. A schedule whose latency bound
// (2S−1)Δ overflows is refused too: MarshalJSON could not render it.
func LoadJSON(data []byte, g *dag.Graph, p *platform.Platform) (*Schedule, error) {
	var in jsonSchedule
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	if in.Tasks != g.NumTasks() {
		return nil, fmt.Errorf("schedule: serialized for %d tasks, graph has %d", in.Tasks, g.NumTasks())
	}
	if in.Procs != p.NumProcs() {
		return nil, fmt.Errorf("schedule: serialized for %d processors, platform has %d", in.Procs, p.NumProcs())
	}
	if in.Period <= 0 {
		return nil, fmt.Errorf("schedule: non-positive period %v", in.Period)
	}
	if err := in.checkStructure(g); err != nil {
		return nil, err
	}
	s := New(g, p, in.Eps, in.Period, in.Algorithm)
	for _, jr := range in.Replicas {
		rep := &Replica{
			Ref:    Ref{Task: dag.TaskID(jr.Task), Copy: jr.Copy},
			Proc:   platform.ProcID(jr.Proc),
			Start:  jr.Start,
			Finish: jr.Finish,
		}
		for _, c := range jr.In {
			rep.In = append(rep.In, Comm{
				From:   Ref{Task: dag.TaskID(c.FromTask), Copy: c.FromCopy},
				Volume: c.Volume,
				Start:  c.Start,
				Finish: c.Finish,
			})
		}
		s.AddReplica(rep)
	}
	if math.IsInf(s.LatencyBound(), 0) {
		return nil, fmt.Errorf("schedule: latency bound (2S−1)Δ overflows at period %v", in.Period)
	}
	return s, nil
}

// checkStructure validates what New and AddReplica would otherwise panic
// on: 0 ≤ ε < procs, every task, copy and processor in range, each of the
// v×(ε+1) replicas listed exactly once, and every input transfer coming
// from an in-range copy of a graph predecessor of the replica's task.
func (in *jsonSchedule) checkStructure(g *dag.Graph) error {
	if in.Eps < 0 || in.Eps >= in.Procs {
		return fmt.Errorf("schedule: ε=%d out of range [0,%d)", in.Eps, in.Procs)
	}
	copies := in.Eps + 1
	seen := make([]bool, in.Tasks*copies)
	for _, jr := range in.Replicas {
		if jr.Task < 0 || jr.Task >= in.Tasks || jr.Copy < 0 || jr.Copy >= copies {
			return fmt.Errorf("schedule: replica (task %d, copy %d) out of range (%d tasks, %d copies)", jr.Task, jr.Copy, in.Tasks, copies)
		}
		ref := Ref{Task: dag.TaskID(jr.Task), Copy: jr.Copy}
		if jr.Proc < 0 || jr.Proc >= in.Procs {
			return fmt.Errorf("schedule: replica %v on processor %d, platform has %d", ref, jr.Proc, in.Procs)
		}
		if seen[jr.Task*copies+jr.Copy] {
			return fmt.Errorf("schedule: replica %v listed twice", ref)
		}
		seen[jr.Task*copies+jr.Copy] = true
		for _, c := range jr.In {
			if !isPred(g, dag.TaskID(c.FromTask), ref.Task) || c.FromCopy < 0 || c.FromCopy >= copies {
				return fmt.Errorf("schedule: replica %v input from (task %d, copy %d), not a copy of a predecessor", ref, c.FromTask, c.FromCopy)
			}
		}
	}
	for k, ok := range seen {
		if !ok {
			return fmt.Errorf("schedule: replica %v missing", Ref{Task: dag.TaskID(k / copies), Copy: k % copies})
		}
	}
	return nil
}

// isPred reports whether u is a direct predecessor of t in g.
func isPred(g *dag.Graph, u, t dag.TaskID) bool {
	for _, e := range g.Pred(t) {
		if e.From == u {
			return true
		}
	}
	return false
}
