package schedule_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"streamsched/internal/dag"
	"streamsched/internal/ltf"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/rltf"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
)

// referenceJSON is the interchange encoder MarshalJSON replaced, kept as a
// reference: stage numbers from a map over a topological pass, the
// serialized form rendered by MarshalIndent, then compacted the way
// json.Marshal compacts a Marshaler's output.
func referenceJSON(t *testing.T, s *schedule.Schedule) []byte {
	t.Helper()
	type comm struct {
		FromTask int     `json:"fromTask"`
		FromCopy int     `json:"fromCopy"`
		Volume   float64 `json:"volume"`
		Start    float64 `json:"start"`
		Finish   float64 `json:"finish"`
	}
	type replica struct {
		Task   int     `json:"task"`
		Name   string  `json:"name"`
		Copy   int     `json:"copy"`
		Proc   int     `json:"proc"`
		Start  float64 `json:"start"`
		Finish float64 `json:"finish"`
		Stage  int     `json:"stage"`
		In     []comm  `json:"in,omitempty"`
	}
	type doc struct {
		Algorithm string    `json:"algorithm"`
		Eps       int       `json:"eps"`
		Period    float64   `json:"period"`
		Graph     string    `json:"graph"`
		Tasks     int       `json:"tasks"`
		Procs     int       `json:"procs"`
		Stages    int       `json:"stages"`
		Latency   float64   `json:"latencyBound"`
		Replicas  []replica `json:"replicas"`
	}
	order, err := s.G.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	stages := map[schedule.Ref]int{}
	S := 0
	for _, task := range order {
		for _, r := range s.Replicas(task) {
			st := 1
			for _, c := range r.In {
				eta := 1
				if s.Replica(c.From).Proc == r.Proc {
					eta = 0
				}
				st = max(st, stages[c.From]+eta)
			}
			stages[r.Ref] = st
			S = max(S, st)
		}
	}
	out := doc{
		Algorithm: s.Algorithm, Eps: s.Eps, Period: s.Period, Graph: s.G.Name(),
		Tasks: s.G.NumTasks(), Procs: s.P.NumProcs(), Stages: S, Latency: float64(2*S-1) * s.Period,
	}
	for _, r := range s.All() {
		jr := replica{Task: int(r.Ref.Task), Name: s.G.Task(r.Ref.Task).Name, Copy: r.Ref.Copy,
			Proc: int(r.Proc), Start: r.Start, Finish: r.Finish, Stage: stages[r.Ref]}
		for _, c := range r.In {
			jr.In = append(jr.In, comm{FromTask: int(c.From.Task), FromCopy: c.From.Copy,
				Volume: c.Volume, Start: c.Start, Finish: c.Finish})
		}
		out.Replicas = append(out.Replicas, jr)
	}
	indented, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	return compact.Bytes()
}

// oddNames copies g with graph and task names that encoding/json escapes:
// <, > and &, a quote, a backslash, U+2028 and an invalid UTF-8 byte.
func oddNames(g *dag.Graph) *dag.Graph {
	const odd = "<a> & \"b\" \\ \u2028 \xff"
	c := dag.New(g.Name() + " " + odd)
	for _, task := range g.Tasks() {
		c.AddTask(fmt.Sprintf("%s %s", task.Name, odd), task.Work)
	}
	for i := 0; i < g.NumTasks(); i++ {
		for _, e := range g.Succ(dag.TaskID(i)) {
			c.MustAddEdge(e.From, e.To, e.Volume)
		}
	}
	return c
}

// TestMarshalJSONMatchesReference renders LTF and R-LTF schedules of a
// heterogeneous random stream graph (under plain and escaped names) and a
// homogeneous butterfly at ε ∈ {0,1,3}: MarshalJSON and json.Marshal must
// both return the reference encoder's bytes.
func TestMarshalJSONMatchesReference(t *testing.T) {
	r := rng.New(31)
	hp := platform.RandomHeterogeneous(r, 12, 0.5, 1, 0.5, 1, 100)
	cfg := randgraph.DefaultStreamConfig()
	cfg.MinTasks, cfg.MaxTasks = 30, 40
	hg := randgraph.Stream(r, cfg, hp)
	instances := []struct {
		name string
		g    *dag.Graph
		p    *platform.Platform
		per  float64
	}{
		{"het_stream", hg, hp, 20},
		{"het_stream_odd_names", oddNames(hg), hp, 20},
		{"hom_butterfly", randgraph.Butterfly(3, 3, 1), platform.Homogeneous(10, 1, 1), 15},
	}
	for _, eps := range []int{0, 1, 3} {
		for _, in := range instances {
			per := in.per * float64(eps+1)
			for _, alg := range []struct {
				name string
				run  func() (*schedule.Schedule, error)
			}{
				{"ltf", func() (*schedule.Schedule, error) {
					return ltf.Schedule(context.Background(), in.g, in.p, eps, per, ltf.Options{})
				}},
				{"rltf", func() (*schedule.Schedule, error) {
					return rltf.Schedule(context.Background(), in.g, in.p, eps, per, rltf.Options{})
				}},
			} {
				t.Run(fmt.Sprintf("%s_%s_eps%d", alg.name, in.name, eps), func(t *testing.T) {
					s, err := alg.run()
					if err != nil {
						t.Fatal(err)
					}
					want := referenceJSON(t, s)
					got, err := s.MarshalJSON()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("MarshalJSON differs from the reference encoder:\n got %s\nwant %s", got, want)
					}
					viaMarshal, err := json.Marshal(s)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(viaMarshal, want) {
						t.Fatalf("json.Marshal differs from the reference encoder:\n got %s\nwant %s", viaMarshal, want)
					}
				})
			}
		}
	}
}
