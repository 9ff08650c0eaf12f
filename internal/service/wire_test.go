package service

// Wire codec properties. The contract pinned here: encode(decode(x)) is
// byte-stable for graphs, platforms and schedules — a decoded-and-re-encoded
// document is byte-identical, so hashes of wire payloads are meaningful and
// proxies can round-trip documents without perturbing them — and every
// infeasibility Reason survives JSON encoding with its classification.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/infeas"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/repair"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
)

// reencodeGraph runs one decode→encode cycle on an encoded graph.
func reencodeGraph(t *testing.T, enc []byte) []byte {
	t.Helper()
	var w Graph
	if err := json.Unmarshal(enc, &w); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	g, err := w.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	out, err := json.Marshal(GraphDTO(g))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return out
}

func TestGraphRoundTripByteStable(t *testing.T) {
	r := rng.New(7)
	p := platform.Homogeneous(4, 1, 10)
	graphs := []*dag.Graph{
		randgraph.Chain(6, 2, 3),
		randgraph.ForkJoin(3, 2, 1, 1),
		randgraph.Fig1Graph(),
		randgraph.Fig2Graph(),
		randgraph.SeriesParallel(rng.New(11), 20, 0.5, 1.5, 50, 150),
	}
	for i := 0; i < 20; i++ {
		cfg := randgraph.DefaultStreamConfig()
		cfg.MinTasks, cfg.MaxTasks = 10, 40
		cfg.Granularity = 0.2 + 1.8*r.Float64()
		graphs = append(graphs, randgraph.Stream(r.Split(), cfg, p))
	}
	for _, g := range graphs {
		enc, err := json.Marshal(GraphDTO(g))
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		re := reencodeGraph(t, enc)
		if !bytes.Equal(enc, re) {
			t.Errorf("%s: re-encoding not byte-stable:\n%s\nvs\n%s", g.Name(), enc, re)
		}
		// And a second cycle stays fixed too.
		if re2 := reencodeGraph(t, re); !bytes.Equal(re, re2) {
			t.Errorf("%s: second cycle moved the encoding", g.Name())
		}
	}
}

func TestPlatformRoundTripByteStable(t *testing.T) {
	r := rng.New(3)
	plats := []*platform.Platform{
		platform.Homogeneous(1, 2, 5),
		platform.Homogeneous(6, 1, 10),
	}
	for i := 0; i < 10; i++ {
		plats = append(plats, platform.RandomHeterogeneous(r, 2+i, 0.5, 1.0, 0.5, 1.0, 100))
	}
	for _, p := range plats {
		enc, err := json.Marshal(PlatformDTO(p))
		if err != nil {
			t.Fatal(err)
		}
		var w Platform
		if err := json.Unmarshal(enc, &w); err != nil {
			t.Fatal(err)
		}
		built, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		re, err := json.Marshal(PlatformDTO(built))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Errorf("platform m=%d: re-encoding not byte-stable", p.NumProcs())
		}
	}
}

func TestScheduleRoundTripByteStable(t *testing.T) {
	g := randgraph.Fig2Graph()
	p := platform.Homogeneous(6, 1, 10)
	for _, eps := range []int{0, 1, 2} {
		sv, err := core.NewSolver(core.WithEps(eps), core.WithPeriod(40))
		if err != nil {
			t.Fatal(err)
		}
		sched, err := sv.Solve(context.Background(), g, p)
		if err != nil {
			t.Fatalf("eps=%d: %v", eps, err)
		}
		enc, err := json.Marshal(sched)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := schedule.LoadJSON(enc, g, p)
		if err != nil {
			t.Fatalf("eps=%d: load: %v", eps, err)
		}
		re, err := json.Marshal(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Errorf("eps=%d: schedule re-encoding not byte-stable", eps)
		}
	}
}

func TestEveryReasonSurvivesJSON(t *testing.T) {
	for _, reason := range infeas.Reasons() {
		e := &infeas.Error{
			Reason: reason,
			Task:   dag.TaskID(3),
			Copy:   1,
			Proc:   platform.ProcID(2),
			Period: 12.5,
			Detail: "detail",
		}
		enc, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("%v: marshal: %v", reason, err)
		}
		var back infeas.Error
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%v: unmarshal: %v", reason, err)
		}
		if back != *e {
			t.Errorf("%v: round trip changed the error: %+v vs %+v", reason, back, *e)
		}
	}
}

func TestReasonUnknownTokenRejected(t *testing.T) {
	var r infeas.Reason
	if err := r.UnmarshalText([]byte("definitely-not-a-reason")); err == nil {
		t.Fatal("unknown token accepted")
	}
}

func TestErrorJSONOmitsSentinels(t *testing.T) {
	e := infeas.Newf(infeas.ReasonSearchExhausted, 8, "probed the whole window")
	enc, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{`"task"`, `"copy"`, `"proc"`, "-1"} {
		if bytes.Contains(enc, []byte(forbidden)) {
			t.Errorf("encoding leaks sentinel %s: %s", forbidden, enc)
		}
	}
	var back infeas.Error
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if back.Task != infeas.NoTask || back.Copy != -1 || back.Proc != infeas.NoProc {
		t.Errorf("sentinels not restored: %+v", back)
	}
}

func TestProblemHashDiscriminates(t *testing.T) {
	base := func() (*dag.Graph, *platform.Platform, *core.Solver) {
		g := randgraph.Chain(5, 2, 3)
		p := platform.Homogeneous(4, 1, 10)
		sv, err := core.NewSolver(core.WithEps(1), core.WithPeriod(20))
		if err != nil {
			t.Fatal(err)
		}
		return g, p, sv
	}

	g, p, sv := base()
	ref := ProblemHash(g, p, sv)

	// Identical problems built independently hash identically.
	g2, p2, sv2 := base()
	if h := ProblemHash(g2, p2, sv2); h != ref {
		t.Fatalf("identical problems hash differently: %s vs %s", ref, h)
	}

	// Each kind of perturbation moves the hash.
	perturbed := map[string]string{}
	{
		gg := randgraph.Chain(5, 2, 3)
		gg.ScaleWork(1.0000001)
		perturbed["work"] = ProblemHash(gg, p, sv)
	}
	{
		gg := randgraph.Chain(5, 2, 3)
		gg.ScaleVolume(1.0000001)
		perturbed["volume"] = ProblemHash(gg, p, sv)
	}
	perturbed["platform"] = ProblemHash(g, platform.Homogeneous(4, 1.0000001, 10), sv)
	{
		sv3, err := core.NewSolver(core.WithEps(2), core.WithPeriod(20))
		if err != nil {
			t.Fatal(err)
		}
		perturbed["eps"] = ProblemHash(g, p, sv3)
	}
	{
		sv4, err := core.NewSolver(core.WithEps(1), core.WithPeriod(20), core.WithAlgorithm(core.LTF))
		if err != nil {
			t.Fatal(err)
		}
		perturbed["algorithm"] = ProblemHash(g, p, sv4)
	}
	seen := map[string]string{ref: "base"}
	for kind, h := range perturbed {
		if prev, dup := seen[h]; dup {
			t.Errorf("perturbation %q collides with %q", kind, prev)
		}
		seen[h] = kind
	}
}

// TestReplanHashDiscriminates is ReplanHash's counterpart of
// TestProblemHashDiscriminates: changing any one hashed field of the
// committed schedule, the delta or the repair policy changes the key, and
// a wire round trip of the schedule does not.
func TestReplanHashDiscriminates(t *testing.T) {
	g := randgraph.ForkJoin(3, 2, 2, 3)
	p := platform.Homogeneous(5, 1, 10)
	sv, err := core.NewSolver(core.WithEps(1), core.WithPeriod(20))
	if err != nil {
		t.Fatal(err)
	}
	committed, err := sv.Solve(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := committed.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// fresh returns an independent copy of the committed schedule.
	fresh := func() *schedule.Schedule {
		s, err := schedule.LoadJSON(raw, g, p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	hash := func(sp ReplanSpec) string {
		h, err := ReplanHash(sp)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := ReplanSpec{Old: committed, Solver: sv}
	ref := hash(base)
	if h := hash(ReplanSpec{Old: fresh(), Solver: sv}); h != ref {
		t.Fatalf("LoadJSON(MarshalJSON(s)) hashes differently: %s vs %s", h, ref)
	}

	// A replica with an input to perturb; the sink's first copy has one.
	sink := schedule.Ref{Task: dag.TaskID(g.NumTasks() - 1)}
	if len(committed.Replica(sink).In) == 0 {
		t.Fatal("the sink's first copy has no input to perturb")
	}
	withSched := func(mutate func(s *schedule.Schedule)) ReplanSpec {
		s := fresh()
		mutate(s)
		return ReplanSpec{Old: s, Solver: sv}
	}
	perturbed := map[string]ReplanSpec{
		"replica proc":   withSched(func(s *schedule.Schedule) { s.Replica(sink).Proc = (s.Replica(sink).Proc + 1) % 5 }),
		"replica start":  withSched(func(s *schedule.Schedule) { s.Replica(sink).Start += 0.5 }),
		"replica finish": withSched(func(s *schedule.Schedule) { s.Replica(sink).Finish += 0.5 }),
		"input copy":     withSched(func(s *schedule.Schedule) { s.Replica(sink).In[0].From.Copy ^= 1 }),
		"input volume":   withSched(func(s *schedule.Schedule) { s.Replica(sink).In[0].Volume *= 1.0000001 }),
		"input start":    withSched(func(s *schedule.Schedule) { s.Replica(sink).In[0].Start += 0.5 }),
		"input finish":   withSched(func(s *schedule.Schedule) { s.Replica(sink).In[0].Finish += 0.5 }),
		"added input": withSched(func(s *schedule.Schedule) {
			r := s.Replica(sink)
			r.In = append(r.In, r.In[0])
		}),
		"eps":       withSched(func(s *schedule.Schedule) { s.Eps = 2 }),
		"period":    withSched(func(s *schedule.Schedule) { s.Period *= 1.0000001 }),
		"algorithm": withSched(func(s *schedule.Schedule) { s.Algorithm = "LTF" }),
		"lost":      {Old: committed, Solver: sv, Delta: core.Delta{Lost: []platform.ProcID{3}}},
		"speed":     {Old: committed, Solver: sv, Delta: core.Delta{Speed: []repair.SpeedChange{{Proc: 1, Speed: 2}}}},
		"bandwidth": {Old: committed, Solver: sv, Delta: core.Delta{Bandwidth: []repair.BandwidthChange{{From: 0, To: 1, Bandwidth: 5}}}},
		"added":     {Old: committed, Solver: sv, Delta: core.Delta{Added: []repair.AddedProc{{Speed: 1, Links: []float64{10, 10, 10, 10, 10}}}}},
		"budget":    {Old: committed, Solver: sv, RepairBudget: 3},
		"fallback":  {Old: committed, Solver: sv, NoColdFallback: true},
	}
	seen := map[string]string{ref: "base"}
	for kind, sp := range perturbed {
		h := hash(sp)
		if prev, dup := seen[h]; dup {
			t.Errorf("perturbation %q collides with %q", kind, prev)
		}
		seen[h] = kind
	}
}

func TestGraphBuildRejectsMalformedInput(t *testing.T) {
	cases := map[string]Graph{
		"empty":        {},
		"zero work":    {Tasks: []Task{{Work: 0}}},
		"nan work":     {Tasks: []Task{{Work: math.NaN()}}},
		"neg volume":   {Tasks: []Task{{Work: 1}, {Work: 1}}, Edges: []Edge{{From: 0, To: 1, Volume: -1}}},
		"self loop":    {Tasks: []Task{{Work: 1}}, Edges: []Edge{{From: 0, To: 0}}},
		"out of range": {Tasks: []Task{{Work: 1}}, Edges: []Edge{{From: 0, To: 5}}},
		"cycle": {Tasks: []Task{{Work: 1}, {Work: 1}},
			Edges: []Edge{{From: 0, To: 1}, {From: 1, To: 0}}},
	}
	for name, w := range cases {
		if _, err := w.Build(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPlatformBuildRejectsMalformedInput(t *testing.T) {
	cases := map[string]Platform{
		"empty":      {},
		"zero speed": {Speeds: []float64{0}, Bandwidth: [][]float64{{0}}},
		"row count":  {Speeds: []float64{1, 1}, Bandwidth: [][]float64{{0, 1}}},
		"col count":  {Speeds: []float64{1, 1}, Bandwidth: [][]float64{{0, 1}, {1}}},
		"zero bw":    {Speeds: []float64{1, 1}, Bandwidth: [][]float64{{0, 0}, {1, 0}}},
	}
	for name, w := range cases {
		if _, err := w.Build(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSchemaVersionPolicy pins the decode-time schema check: omitted (0)
// and current versions pass, anything else fails with the stable reason
// token as the message prefix.
func TestSchemaVersionPolicy(t *testing.T) {
	for _, v := range []int{0, Version} {
		if err := checkSchemaVersion(v); err != nil {
			t.Errorf("version %d rejected: %v", v, err)
		}
	}
	for _, v := range []int{-1, 2, 99} {
		err := checkSchemaVersion(v)
		if err == nil {
			t.Errorf("version %d accepted", v)
			continue
		}
		if !strings.HasPrefix(err.Error(), ReasonUnsupportedSchema) {
			t.Errorf("version %d error %q does not start with %q", v, err.Error(), ReasonUnsupportedSchema)
		}
	}
}

// TestSchemaVersionOnEveryEndpoint: all four /v1 POST endpoints reject an
// unknown major version with 400 and the stable token, and every response
// envelope echoes the build's version.
func TestSchemaVersionOnEveryEndpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/solve", "/v1/batch", "/v1/replan", "/v1/simulate"} {
		resp, data := postJSON(t, ts.Client(), ts.URL+path, map[string]any{"schemaVersion": 99})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
		var envelope struct {
			SchemaVersion int    `json:"schemaVersion"`
			Error         string `json:"error"`
		}
		if err := json.Unmarshal(data, &envelope); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !strings.HasPrefix(envelope.Error, ReasonUnsupportedSchema) {
			t.Errorf("%s: error %q does not start with %q", path, envelope.Error, ReasonUnsupportedSchema)
		}
		if envelope.SchemaVersion != Version {
			t.Errorf("%s: response schemaVersion %d, want %d", path, envelope.SchemaVersion, Version)
		}
	}
}

// TestSchemaVersionRoundTripByteStable: the version field survives an
// encode→decode→encode cycle on every request/response DTO, and a request
// marshalled with the current Version re-encodes byte-identically — the
// version is part of the byte-stable wire contract.
func TestSchemaVersionRoundTripByteStable(t *testing.T) {
	docs := []any{
		&SolveRequest{SchemaVersion: Version, Options: Options{Period: 10}},
		&SolveResponse{SchemaVersion: Version},
		&BatchRequest{SchemaVersion: Version},
		&BatchResponse{SchemaVersion: Version},
		&ReplanRequest{SchemaVersion: Version},
		&ReplanResponse{SchemaVersion: Version},
		&SimulateRequest{SchemaVersion: Version},
		&SimulateResponse{SchemaVersion: Version},
	}
	for _, doc := range docs {
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(enc, []byte(`"schemaVersion":1`)) {
			t.Errorf("%T encoding %s does not carry schemaVersion", doc, enc)
		}
		var probe map[string]any
		if err := json.Unmarshal(enc, &probe); err != nil {
			t.Fatal(err)
		}
		if v, ok := probe["schemaVersion"].(float64); !ok || int(v) != Version {
			t.Errorf("%T: decoded schemaVersion %v", doc, probe["schemaVersion"])
		}
		if _, ok := probe["v"]; ok {
			t.Errorf("%T still encodes the legacy \"v\" field", doc)
		}
		re, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Errorf("%T: re-encoding not byte-stable", doc)
		}
	}
}

// TestPlatformDeltaRoundTripByteStable: the wire delta re-encodes
// byte-identically and Build reproduces the in-memory change set.
func TestPlatformDeltaRoundTripByteStable(t *testing.T) {
	w := PlatformDelta{
		Lost:      []int{2},
		Speed:     []ProcSpeed{{Proc: 0, Speed: 1.5}},
		Bandwidth: []LinkBandwidth{{From: 0, To: 1, Bandwidth: 25}},
		Added:     []NewProc{{Speed: 2, Links: []float64{5, 5, 5}}},
	}
	enc, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back PlatformDelta
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	re, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatalf("delta re-encoding not byte-stable:\n%s\nvs\n%s", enc, re)
	}
	d := back.Build()
	if len(d.Lost) != 1 || d.Lost[0] != 2 ||
		len(d.Speed) != 1 || d.Speed[0].Proc != 0 || d.Speed[0].Speed != 1.5 ||
		len(d.Bandwidth) != 1 || d.Bandwidth[0].Bandwidth != 25 ||
		len(d.Added) != 1 || len(d.Added[0].Links) != 3 {
		t.Fatalf("Build lost information: %+v", d)
	}
	// The empty delta is valid wire ({}) and builds the empty change set.
	var empty PlatformDelta
	if err := json.Unmarshal([]byte(`{}`), &empty); err != nil {
		t.Fatal(err)
	}
	if !empty.Build().Empty() {
		t.Fatal("empty wire delta is not the empty change set")
	}
}
