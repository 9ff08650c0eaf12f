// Package service turns the solving and simulation stack into a long-running
// scheduling service: versioned JSON DTOs for problems and results (this
// file), a canonical problem hash (hash.go) keying a size-bounded LRU result
// cache (cache.go) with singleflight coalescing (flight.go), an admission
// layer with a bounded work queue and per-request deadlines (server.go), and
// request/latency metrics (metrics.go). cmd/streamschedd serves the HTTP
// surface; the façade re-exports the client-side types.
//
// Wire contract. Every request carries an explicit "schemaVersion" (0 is
// read as the current Version, so hand-written payloads may omit it; an
// unsupported version is rejected at decode time with a stable reason
// token, before any work is admitted). Graphs,
// platforms and solver options travel as explicit DTOs — never as Go-side
// gob or reflection formats — so non-Go clients can produce them. Schedules
// travel in the schedule package's own JSON interchange format, embedded as
// a raw message; infeasibility travels as the classified infeas.Error JSON
// (reason tokens, optional task/copy/proc location). Encoding is
// deterministic: encode(decode(x)) is byte-stable for graphs, platforms and
// schedules, which the wire property tests pin.
package service

import (
	"encoding/json"
	"fmt"
	"math"

	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/infeas"
	"streamsched/internal/platform"
	"streamsched/internal/repair"
	"streamsched/internal/schedule"
)

// Version is the wire schema version accepted and emitted by this build.
const Version = 1

// ReasonUnsupportedSchema is the stable leading token of the error message
// rejecting an unsupported schema version; clients match on the prefix,
// not the prose.
const ReasonUnsupportedSchema = "unsupported-schema-version"

// checkSchemaVersion validates a decoded request's schema version: 0
// (omitted) and the current Version are accepted, anything else is
// rejected with a message starting with ReasonUnsupportedSchema. The HTTP
// adapter maps the rejection to 400.
func checkSchemaVersion(v int) error {
	if v != 0 && v != Version {
		return fmt.Errorf("%s: schema version %d not supported (this build speaks %d)", ReasonUnsupportedSchema, v, Version)
	}
	return nil
}

// request is a decoded /v1 request body: the HTTP adapter checks its
// schema version with checkSchemaVersion and applies its TimeoutMs.
type request interface {
	header() (schemaVersion, timeoutMs int)
}

func (r *SolveRequest) header() (int, int)    { return r.SchemaVersion, r.TimeoutMs }
func (r *BatchRequest) header() (int, int)    { return r.SchemaVersion, r.TimeoutMs }
func (r *ReplanRequest) header() (int, int)   { return r.SchemaVersion, r.TimeoutMs }
func (r *SimulateRequest) header() (int, int) { return r.SchemaVersion, r.TimeoutMs }

// Infeasible is the wire form of a classified infeasibility; it aliases
// infeas.Error, whose JSON encoding is the wire contract (reason tokens,
// optional locations).
type Infeasible = infeas.Error

// Graph is the wire form of dag.Graph: tasks in ID order, edges grouped by
// source task in insertion order — exactly the iteration order of the
// in-memory graph, so re-encoding a decoded graph is byte-identical.
type Graph struct {
	Name  string `json:"name,omitempty"`
	Tasks []Task `json:"tasks"`
	Edges []Edge `json:"edges,omitempty"`
}

// Task is one wire task.
type Task struct {
	Name string  `json:"name,omitempty"`
	Work float64 `json:"work"`
}

// Edge is one wire edge; From/To index Tasks.
type Edge struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Volume float64 `json:"volume,omitempty"`
}

// GraphDTO converts an in-memory graph to its wire form.
func GraphDTO(g *dag.Graph) Graph {
	w := Graph{Name: g.Name(), Tasks: make([]Task, 0, g.NumTasks())}
	for _, t := range g.Tasks() {
		w.Tasks = append(w.Tasks, Task{Name: t.Name, Work: t.Work})
	}
	for i := 0; i < g.NumTasks(); i++ {
		for _, e := range g.Succ(dag.TaskID(i)) {
			w.Edges = append(w.Edges, Edge{From: int(e.From), To: int(e.To), Volume: e.Volume})
		}
	}
	return w
}

// Build reconstructs the in-memory graph, validating what the dag package
// enforces by panic (trusted in-process builders) as returned errors: wire
// input is untrusted.
func (w Graph) Build() (*dag.Graph, error) {
	if len(w.Tasks) == 0 {
		return nil, fmt.Errorf("service: graph has no tasks")
	}
	g := dag.New(w.Name)
	for i, t := range w.Tasks {
		if !(t.Work > 0) { // rejects zero, negatives and NaN
			return nil, fmt.Errorf("service: task %d has non-positive work %v", i, t.Work)
		}
		g.AddTask(t.Name, t.Work)
	}
	for _, e := range w.Edges {
		if e.Volume < 0 || math.IsNaN(e.Volume) {
			return nil, fmt.Errorf("service: edge (%d,%d) has invalid volume %v", e.From, e.To, e.Volume)
		}
		if err := g.AddEdge(dag.TaskID(e.From), dag.TaskID(e.To), e.Volume); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return g, nil
}

// Platform is the wire form of platform.Platform. Bandwidth is the full
// m×m link matrix with zero diagonal (intra-processor transfers are free
// and never priced through a link).
type Platform struct {
	Speeds    []float64   `json:"speeds"`
	Bandwidth [][]float64 `json:"bandwidth"`
}

// PlatformDTO converts an in-memory platform to its wire form.
func PlatformDTO(p *platform.Platform) Platform {
	m := p.NumProcs()
	w := Platform{
		Speeds:    append([]float64(nil), p.Speeds()...),
		Bandwidth: make([][]float64, m),
	}
	for k := 0; k < m; k++ {
		w.Bandwidth[k] = make([]float64, m)
		for h := 0; h < m; h++ {
			if k != h {
				w.Bandwidth[k][h] = p.Bandwidth(platform.ProcID(k), platform.ProcID(h))
			}
		}
	}
	return w
}

// Build reconstructs the in-memory platform, pre-validating the invariants
// platform.New enforces by panic.
func (w Platform) Build() (*platform.Platform, error) {
	m := len(w.Speeds)
	if m == 0 {
		return nil, fmt.Errorf("service: platform has no processors")
	}
	if len(w.Bandwidth) != m {
		return nil, fmt.Errorf("service: bandwidth matrix has %d rows, want %d", len(w.Bandwidth), m)
	}
	for u, s := range w.Speeds {
		if !(s > 0) {
			return nil, fmt.Errorf("service: processor %d has non-positive speed %v", u, s)
		}
		if len(w.Bandwidth[u]) != m {
			return nil, fmt.Errorf("service: bandwidth row %d has %d cols, want %d", u, len(w.Bandwidth[u]), m)
		}
		for h, d := range w.Bandwidth[u] {
			if h != u && !(d > 0) {
				return nil, fmt.Errorf("service: link (%d,%d) has non-positive bandwidth %v", u, h, d)
			}
		}
	}
	return platform.New(w.Speeds, w.Bandwidth), nil
}

// Options is the wire form of the solver configuration. The zero value of
// every field except Period maps to the solver default (R-LTF, ε = 0,
// chunk B = m, one-to-one mapping on, no latency cap).
type Options struct {
	// Algorithm is "ltf", "rltf", "ff" or "portfolio" ("" → "rltf").
	Algorithm string `json:"algorithm,omitempty"`
	// Eps is ε, the number of tolerated processor failures.
	Eps int `json:"eps,omitempty"`
	// Period is Δ = 1/T, the required iteration period (mandatory, > 0).
	Period float64 `json:"period"`
	// ChunkSize overrides the iso-level chunk bound B (0 → m).
	ChunkSize int `json:"chunkSize,omitempty"`
	// DisableOneToOne forces full communication replication (ablation).
	DisableOneToOne bool `json:"disableOneToOne,omitempty"`
	// LatencyCap rejects schedules whose bound exceeds it (0 → no cap).
	LatencyCap float64 `json:"latencyCap,omitempty"`
}

// ParseAlgorithm maps a wire algorithm token to the core enum.
func ParseAlgorithm(s string) (core.Algorithm, error) {
	switch s {
	case "", "rltf":
		return core.RLTF, nil
	case "ltf":
		return core.LTF, nil
	case "ff":
		return core.FaultFree, nil
	case "portfolio":
		return core.Portfolio, nil
	default:
		return 0, fmt.Errorf("service: unknown algorithm %q", s)
	}
}

// coreOpts converts the wire options to core functional options.
func (o Options) coreOpts() ([]core.Option, error) {
	algo, err := ParseAlgorithm(o.Algorithm)
	if err != nil {
		return nil, err
	}
	return []core.Option{
		core.WithAlgorithm(algo),
		core.WithEps(o.Eps),
		core.WithPeriod(o.Period),
		core.WithChunkSize(o.ChunkSize),
		core.WithOneToOne(!o.DisableOneToOne),
		core.WithLatencyCap(o.LatencyCap),
	}, nil
}

// Solver builds the configured core.Solver from the wire options,
// validating them as they apply.
func (o Options) Solver() (*core.Solver, error) {
	opts, err := o.coreOpts()
	if err != nil {
		return nil, err
	}
	return core.NewSolver(opts...)
}

// SolveRequest is the POST /v1/solve payload: one problem.
type SolveRequest struct {
	SchemaVersion int      `json:"schemaVersion"`
	Graph         Graph    `json:"graph"`
	Platform      Platform `json:"platform"`
	Options       Options  `json:"options"`
	// TimeoutMs bounds the request's end-to-end service time, queueing
	// included (0 → the server's default deadline).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// ScheduleSummary carries the headline metrics of a schedule so clients
// need not parse the full interchange document.
type ScheduleSummary struct {
	Algorithm    string  `json:"algorithm"`
	Stages       int     `json:"stages"`
	LatencyBound float64 `json:"latencyBound"`
	Makespan     float64 `json:"makespan"`
	CrossComms   int     `json:"crossComms"`
}

// SolveResponse is the reply envelope of every /v1 route and of each batch
// element; ReplanResponse and SimulateResponse are aliases of it. Exactly
// one of Schedule or Scenarios (each with Summary), Infeasible and Error
// is populated, and each route sets only its own fields, so the field
// order below is the wire order of every route's reply.
type SolveResponse struct {
	SchemaVersion int `json:"schemaVersion"`
	// Hash is the canonical problem hash — the cache key; clients can use
	// it to correlate retries and batch elements.
	Hash string `json:"hash,omitempty"`
	// Cached reports that the result was served from the LRU cache;
	// Coalesced that it piggybacked on an identical in-flight solve.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Schedule is the schedule interchange JSON (schedule.MarshalJSON): the
	// solved one, or on /v1/replan the repaired (or cold-resolved) one for
	// the post-delta platform. /v1/simulate omits it.
	Schedule json.RawMessage  `json:"schedule,omitempty"`
	Summary  *ScheduleSummary `json:"summary,omitempty"`
	// Replan reports how a /v1/replan schedule was obtained: replayed /
	// preserved / searched task counts, or ColdSolve.
	Replan *ReplanStats `json:"replan,omitempty"`
	// Infeasible reports a typed "no schedule exists" outcome (HTTP 409).
	Infeasible *Infeasible `json:"infeasible,omitempty"`
	// Scenarios carries /v1/simulate's per-scenario measurements.
	Scenarios []ScenarioResult `json:"scenarios,omitempty"`
	// Error reports a non-infeasibility failure.
	Error string `json:"error,omitempty"`
}

// BatchProblem is one element of a batch: its own graph/platform and an
// optional per-problem options override (nil → the batch default).
type BatchProblem struct {
	Graph    Graph    `json:"graph"`
	Platform Platform `json:"platform"`
	Options  *Options `json:"options,omitempty"`
}

// BatchRequest is the POST /v1/batch payload: many problems fanned through
// core.Batch on the server's worker pool.
type BatchRequest struct {
	SchemaVersion int            `json:"schemaVersion"`
	Problems      []BatchProblem `json:"problems"`
	// Options is the batch-wide default applied to problems without one.
	Options   Options `json:"options"`
	TimeoutMs int     `json:"timeoutMs,omitempty"`
}

// BatchResponse carries one SolveResponse per problem, in request order.
// Request-level failures (malformed JSON, unsupported version, empty
// batch, whole-batch rejection) set Error and leave Results empty.
type BatchResponse struct {
	SchemaVersion int             `json:"schemaVersion"`
	Results       []SolveResponse `json:"results,omitempty"`
	Error         string          `json:"error,omitempty"`
}

// Scenario configures one simulation run of a solved schedule. The zero
// value runs the free-running default configuration (sim.DefaultConfig).
type Scenario struct {
	Name string `json:"name,omitempty"`
	// Items/Warmup size the run (0 → sim.DefaultConfig for the schedule).
	Items  int `json:"items,omitempty"`
	Warmup int `json:"warmup,omitempty"`
	// Synchronous selects stage-synchronized pipeline semantics.
	Synchronous bool `json:"synchronous,omitempty"`
	// CrashProcs/CrashAt inject fail-stop processor crashes.
	CrashProcs []int   `json:"crashProcs,omitempty"`
	CrashAt    float64 `json:"crashAt,omitempty"`
}

// ScenarioResult reports one scenario's measurements. Latency fields are
// null when no item was delivered (the in-memory NaN).
type ScenarioResult struct {
	Name           string   `json:"name,omitempty"`
	MeanLatency    *float64 `json:"meanLatency"`
	MaxLatency     *float64 `json:"maxLatency"`
	AchievedPeriod *float64 `json:"achievedPeriod"`
	Delivered      int      `json:"delivered"`
	Items          int      `json:"items"`
}

// SimulateRequest is the POST /v1/simulate payload: solve one problem
// (through the same cache/coalescing path as /v1/solve), then sweep the
// scenarios on one reused simulation engine.
type SimulateRequest struct {
	SchemaVersion int      `json:"schemaVersion"`
	Graph         Graph    `json:"graph"`
	Platform      Platform `json:"platform"`
	Options       Options  `json:"options"`
	// Scenarios lists the runs; empty runs one default scenario.
	Scenarios []Scenario `json:"scenarios,omitempty"`
	TimeoutMs int        `json:"timeoutMs,omitempty"`
}

// SimulateResponse is the /v1/simulate reply: the solve outcome's summary
// or infeasibility, and the per-scenario measurements.
type SimulateResponse = SolveResponse

// summarize extracts the headline metrics.
func summarize(s *schedule.Schedule) *ScheduleSummary {
	return &ScheduleSummary{
		Algorithm:    s.Algorithm,
		Stages:       s.Stages(),
		LatencyBound: s.LatencyBound(),
		Makespan:     s.Makespan(),
		CrossComms:   s.CrossComms(),
	}
}

// jsonFloat maps NaN (undelivered) to null.
func jsonFloat(x float64) *float64 {
	if math.IsNaN(x) {
		return nil
	}
	return &x
}

// ProcSpeed is one wire processor-speed change.
type ProcSpeed struct {
	Proc  int     `json:"proc"`
	Speed float64 `json:"speed"`
}

// LinkBandwidth is one wire directed-link bandwidth change.
type LinkBandwidth struct {
	From      int     `json:"from"`
	To        int     `json:"to"`
	Bandwidth float64 `json:"bandwidth"`
}

// NewProc is one wire added processor: its speed and its symmetric link
// bandwidths to the surviving pre-delta processors (one per survivor, in
// pre-delta order with lost processors skipped) and then to the previously
// added processors of the same delta.
type NewProc struct {
	Speed float64   `json:"speed"`
	Links []float64 `json:"links"`
}

// PlatformDelta is the wire form of a platform change set: lost
// processors, speed changes, bandwidth changes, added processors. All
// processor identifiers are pre-delta. The empty delta is valid (a replay
// of the committed schedule).
type PlatformDelta struct {
	Lost      []int           `json:"lost,omitempty"`
	Speed     []ProcSpeed     `json:"speed,omitempty"`
	Bandwidth []LinkBandwidth `json:"bandwidth,omitempty"`
	Added     []NewProc       `json:"added,omitempty"`
}

// Build converts the wire delta to the in-memory change set. Semantic
// validation (range checks, duplicates, positivity) happens in
// Delta.Apply, which the server runs before admitting the replan.
func (w PlatformDelta) Build() core.Delta {
	var d core.Delta
	for _, u := range w.Lost {
		d.Lost = append(d.Lost, platform.ProcID(u))
	}
	for _, s := range w.Speed {
		d.Speed = append(d.Speed, repair.SpeedChange{Proc: platform.ProcID(s.Proc), Speed: s.Speed})
	}
	for _, b := range w.Bandwidth {
		d.Bandwidth = append(d.Bandwidth, repair.BandwidthChange{
			From: platform.ProcID(b.From), To: platform.ProcID(b.To), Bandwidth: b.Bandwidth,
		})
	}
	for _, a := range w.Added {
		d.Added = append(d.Added, repair.AddedProc{Speed: a.Speed, Links: append([]float64(nil), a.Links...)})
	}
	return d
}

// ReplanStats is the wire form of the repair statistics: how much of the
// committed schedule survived the delta.
type ReplanStats struct {
	Replayed  int  `json:"replayed"`
	Preserved int  `json:"preserved"`
	Repaired  int  `json:"repaired"`
	ColdSolve bool `json:"coldSolve,omitempty"`
}

// replanStatsDTO converts in-memory repair statistics to the wire form.
func replanStatsDTO(s *core.RepairStats) *ReplanStats {
	if s == nil {
		return nil
	}
	return &ReplanStats{Replayed: s.Replayed, Preserved: s.Preserved, Repaired: s.Repaired, ColdSolve: s.ColdSolve}
}

// ReplanRequest is the POST /v1/replan payload: the problem (graph,
// pre-delta platform, solver options matching the committed schedule), the
// committed schedule in interchange form, the platform delta, and the
// repair policy.
type ReplanRequest struct {
	SchemaVersion int      `json:"schemaVersion"`
	Graph         Graph    `json:"graph"`
	Platform      Platform `json:"platform"`
	Options       Options  `json:"options"`
	// Schedule is the committed schedule (schedule.MarshalJSON interchange
	// format) to repair; it must decode against Graph and Platform and
	// agree with Options on eps and period.
	Schedule json.RawMessage `json:"schedule"`
	Delta    PlatformDelta   `json:"delta"`
	// RepairBudget bounds the tasks repair may re-place through the search
	// machinery (0 = unlimited).
	RepairBudget int `json:"repairBudget,omitempty"`
	// NoColdFallback surfaces repair failure (HTTP 409) instead of
	// re-solving from scratch.
	NoColdFallback bool `json:"noColdFallback,omitempty"`
	TimeoutMs      int  `json:"timeoutMs,omitempty"`
}

// ReplanResponse is the /v1/replan reply: the repaired schedule with its
// Summary and Replan statistics, or Infeasible.
type ReplanResponse = SolveResponse
