package service

// Observability tests (DESIGN.md §12): the end-to-end tracing contract
// over real HTTP — X-Trace-Id on every response, the span tree on
// /debug/traces in JSON and Chrome forms, Server-Timing with
// ?debug=timing, the Prometheus exposition — plus the edge cases of the
// metrics machinery the scrape is built from (latency-ring wraparound,
// tiny windows, statusKey).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"streamsched/internal/faultinject"
	"streamsched/internal/obs"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// getJSON fetches url and decodes the body into out.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", path, err, data)
		}
	}
	return resp
}

func TestTracedSolveEndToEnd(t *testing.T) {
	srv := New(Config{Tracing: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A cold solve, then a cache hit: both must carry trace IDs.
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/solve", feasibleRequest(2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: HTTP %d", resp.StatusCode)
	}
	coldID := resp.Header.Get("X-Trace-Id")
	if !traceIDRe.MatchString(coldID) {
		t.Fatalf("X-Trace-Id %q does not match %v", coldID, traceIDRe)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/solve", feasibleRequest(2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached solve: HTTP %d\n%s", resp.StatusCode, body)
	}
	hitID := resp.Header.Get("X-Trace-Id")
	if !traceIDRe.MatchString(hitID) || hitID == coldID {
		t.Fatalf("cached solve trace ID %q (cold %q): want a distinct well-formed ID", hitID, coldID)
	}

	// The ring serves both traces, newest first, with the pipeline span
	// tree on the cold one: decode, hash, cache, flight, admission, solve
	// (with the algorithm's own child), render.
	var doc struct {
		Count  int             `json:"count"`
		Traces []obs.TraceJSON `json:"traces"`
	}
	getJSON(t, ts, "/debug/traces", &doc)
	if doc.Count != 2 || len(doc.Traces) != 2 {
		t.Fatalf("ring holds %d traces, want 2", doc.Count)
	}
	if doc.Traces[0].ID != hitID || doc.Traces[1].ID != coldID {
		t.Fatalf("ring order [%s %s], want newest-first [%s %s]",
			doc.Traces[0].ID, doc.Traces[1].ID, hitID, coldID)
	}
	cold := doc.Traces[1]
	if cold.Name != "/v1/solve" || cold.Status != http.StatusOK {
		t.Fatalf("cold trace name=%q status=%d", cold.Name, cold.Status)
	}
	names := make(map[string]int)
	for _, sp := range cold.Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"decode", "hash", "cache", "flight", "admission", "solve", "render"} {
		if names[want] == 0 {
			t.Errorf("cold trace missing span %q (have %v)", want, names)
		}
	}
	if names["rltf"] == 0 {
		t.Errorf("cold trace missing the solver phase span %q (have %v)", "rltf", names)
	}
	// The solver span nests under the flight, which nests under the root.
	var flightIdx = -1
	for i, sp := range cold.Spans {
		if sp.Name == "flight" {
			flightIdx = i
		}
	}
	foundNested := false
	for _, sp := range cold.Spans {
		if sp.Name == "solve" && int(sp.Parent) == flightIdx {
			foundNested = true
		}
	}
	if !foundNested {
		t.Errorf("no solve span parented to the flight span (index %d)", flightIdx)
	}
	// Hash and outcome are stamped on the root.
	root := cold.Spans[0]
	if root.Args["outcome"] != "solved" {
		t.Errorf("cold root outcome = %v, want solved", root.Args["outcome"])
	}
	if hit := doc.Traces[0].Spans[0]; hit.Args["outcome"] != "cached" {
		t.Errorf("hit root outcome = %v, want cached", hit.Args["outcome"])
	}

	// Chrome export: a parseable event array.
	resp = getJSON(t, ts, "/debug/traces?format=chrome", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export: HTTP %d", resp.StatusCode)
	}
	var events []map[string]any
	r2, err := ts.Client().Get(ts.URL + "/debug/traces?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&events); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	r2.Body.Close()
	if len(events) == 0 {
		t.Fatal("chrome export is empty")
	}

	// ?debug=timing adds Server-Timing with stage durations.
	enc, _ := json.Marshal(feasibleRequest(2))
	r3, err := ts.Client().Post(ts.URL+"/v1/solve?debug=timing", "application/json", strings.NewReader(string(enc)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	st := r3.Header.Get("Server-Timing")
	if !strings.Contains(st, "dur=") || !strings.Contains(st, "cache") {
		t.Fatalf("Server-Timing %q: want stage entries with dur=", st)
	}

	// Stage latency rings surface in /metrics and the Prometheus scrape.
	m := getMetrics(t, ts)
	if m.StagesMs["cache"].Count == 0 {
		t.Fatalf("stagesMs missing cache observations: %+v", m.StagesMs)
	}
	r4, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(r4.Body)
	r4.Body.Close()
	if ct := r4.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE streamsched_requests_total counter",
		`streamsched_requests_total{endpoint="solve"} `,
		`streamsched_request_latency_ms{quantile="0.99"} `,
		`streamsched_stage_latency_ms{stage="cache",quantile="0.5"} `,
		"streamsched_cache_hits_total 2",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("prometheus scrape missing %q", want)
		}
	}

	// Every endpoint runs the one job path, so a cold replan, batch and
	// simulate trace the same pipeline stages as the cold solve.
	base := feasibleRequest(5)
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/replan", replanRequest(t, 3, PlatformDelta{})},
		{"/v1/batch", BatchRequest{Options: base.Options, Problems: []BatchProblem{{Graph: base.Graph, Platform: base.Platform}}}},
		{"/v1/simulate", SimulateRequest{Graph: feasibleRequest(6).Graph, Platform: base.Platform, Options: base.Options}},
	} {
		resp, data := postJSON(t, ts.Client(), ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d (%s)", tc.path, resp.StatusCode, data)
		}
		id := resp.Header.Get("X-Trace-Id")
		getJSON(t, ts, "/debug/traces", &doc)
		var tr *obs.TraceJSON
		for i := range doc.Traces {
			if doc.Traces[i].ID == id {
				tr = &doc.Traces[i]
			}
		}
		if tr == nil {
			t.Fatalf("%s: trace %s not in the ring", tc.path, id)
		}
		names := make(map[string]int)
		for _, sp := range tr.Spans {
			names[sp.Name]++
		}
		for _, want := range []string{"decode", "hash", "cache", "flight", "admission", "solve", "render"} {
			if names[want] == 0 {
				t.Errorf("%s trace missing span %q (have %v)", tc.path, want, names)
			}
		}
	}
}

// TestEveryRouteTracesOneShape pins the one /v1 path's trace shape: every
// route's root has decode and render children of its own, and the solve,
// replan and simulate roots carry the hash prefix and outcome label.
func TestEveryRouteTracesOneShape(t *testing.T) {
	srv := New(Config{Tracing: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := feasibleRequest(7)
	for _, tc := range []struct {
		path    string
		body    any
		outcome string // "" for a batch, whose root carries its problem count
	}{
		{"/v1/solve", base, "solved"},
		{"/v1/replan", replanRequest(t, 7, PlatformDelta{Speed: []ProcSpeed{{Proc: 1, Speed: 2}}}), "solved"},
		{"/v1/batch", BatchRequest{Options: base.Options, Problems: []BatchProblem{{Graph: base.Graph, Platform: base.Platform}}}, ""},
		{"/v1/simulate", SimulateRequest{Graph: base.Graph, Platform: base.Platform, Options: base.Options}, "simulated"},
	} {
		resp, data := postJSON(t, ts.Client(), ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d (%s)", tc.path, resp.StatusCode, data)
		}
		var doc struct{ Traces []obs.TraceJSON }
		getJSON(t, ts, "/debug/traces", &doc)
		if len(doc.Traces) == 0 || doc.Traces[0].ID != resp.Header.Get("X-Trace-Id") {
			t.Fatalf("%s: trace %s is not the newest in the ring", tc.path, resp.Header.Get("X-Trace-Id"))
		}
		spans := doc.Traces[0].Spans
		children := make(map[string]int)
		for _, sp := range spans {
			if sp.Parent == 0 {
				children[sp.Name]++
			}
		}
		if children["decode"] != 1 || children["render"] != 1 {
			t.Errorf("%s: root children %v, want one decode and one render", tc.path, children)
		}
		root := spans[0].Args
		if tc.outcome == "" {
			if root["problems"] == nil {
				t.Errorf("%s: root args %v, want the problem count", tc.path, root)
			}
			continue
		}
		if hash, _ := root["hash"].(string); len(hash) != 12 || root["outcome"] != tc.outcome {
			t.Errorf("%s: root args %v, want a 12-character hash and outcome %q", tc.path, root, tc.outcome)
		}
	}
}

// TestDebugTracesErrorEnvelope pins /debug/traces' errors to the envelope
// every other endpoint answers with: a non-GET is a 405 naming GET in
// Allow, and an untraced handle answers 404.
func TestDebugTracesErrorEnvelope(t *testing.T) {
	for _, tc := range []struct {
		tracing bool
		method  string
		status  int
		allow   string
	}{
		{true, http.MethodPost, http.StatusMethodNotAllowed, http.MethodGet},
		{false, http.MethodGet, http.StatusNotFound, ""},
	} {
		rec := httptest.NewRecorder()
		New(Config{Tracing: tc.tracing}).Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, "/debug/traces", nil))
		var env map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s /debug/traces: %v\n%s", tc.method, err, rec.Body)
		}
		if rec.Code != tc.status || rec.Header().Get("Allow") != tc.allow {
			t.Errorf("%s /debug/traces: HTTP %d Allow %q, want %d Allow %q", tc.method, rec.Code, rec.Header().Get("Allow"), tc.status, tc.allow)
		}
		if msg, _ := env["error"].(string); len(env) != 2 || env["schemaVersion"] != float64(Version) || msg == "" {
			t.Errorf("%s /debug/traces body %s, want the schemaVersion %d error envelope", tc.method, rec.Body, Version)
		}
	}
}

func TestTracingDisabledIsInvisible(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/solve", feasibleRequest(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: HTTP %d", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Trace-Id"); id != "" {
		t.Fatalf("untraced handle stamped X-Trace-Id %q", id)
	}
	if resp := getJSON(t, ts, "/debug/traces", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/traces on an untraced handle: HTTP %d, want 404", resp.StatusCode)
	}
	if m := getMetrics(t, ts); len(m.StagesMs) != 0 {
		t.Fatalf("untraced handle reported stage latencies: %+v", m.StagesMs)
	}
}

func TestRequestLogEntries(t *testing.T) {
	var entries []RequestLogEntry
	srv := New(Config{Tracing: true, RequestLog: func(e RequestLogEntry) { entries = append(entries, e) }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/solve", feasibleRequest(4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: HTTP %d", resp.StatusCode)
	}
	resp2, _ := postJSON(t, ts.Client(), ts.URL+"/v1/solve", infeasibleRequest())
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("infeasible solve: HTTP %d", resp2.StatusCode)
	}
	if len(entries) != 2 {
		t.Fatalf("%d log entries, want 2", len(entries))
	}
	e := entries[0]
	if e.TraceID != resp.Header.Get("X-Trace-Id") || e.Method != "POST" || e.Path != "/v1/solve" ||
		e.Status != http.StatusOK || e.Outcome != "solved" || e.Hash == "" || e.DurationMs <= 0 {
		t.Fatalf("solve log entry %+v", e)
	}
	if len(e.Stages) == 0 || e.Stages["decode"] < 0 {
		t.Fatalf("solve log entry missing stage breakdown: %+v", e.Stages)
	}
	if e2 := entries[1]; e2.Status != http.StatusConflict || e2.Outcome != "infeasible" {
		t.Fatalf("infeasible log entry %+v", e2)
	}

	// A simulate whose solve succeeds but whose sweep admission is refused
	// failed: it logs its 429 as an error, not as simulated.
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Enable(SiteAdmitReject, faultinject.Nth(2))
	base := feasibleRequest(5)
	resp3, data := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", SimulateRequest{Graph: base.Graph, Platform: base.Platform, Options: base.Options})
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("simulate with a refused sweep: HTTP %d (%s)", resp3.StatusCode, data)
	}
	if len(entries) != 3 {
		t.Fatalf("%d log entries, want 3", len(entries))
	}
	if e3 := entries[2]; e3.Path != "/v1/simulate" || e3.Status != http.StatusTooManyRequests || e3.Outcome != "error" || e3.Hash == "" {
		t.Fatalf("refused simulate log entry %+v", e3)
	}
}

// ---- metrics machinery edge cases --------------------------------------

func TestLatencyRingWraparound(t *testing.T) {
	var r latencyRing
	// 500 past capacity: the window must hold exactly the most recent
	// latencyRingSize observations (501..4596 of the ascending feed).
	total := latencyRingSize + 500
	for i := 1; i <= total; i++ {
		r.observe(float64(i))
	}
	cnt, p50, _, _, max := r.snapshot()
	if cnt != int64(total) {
		t.Fatalf("count = %d, want %d (all-time, not windowed)", cnt, total)
	}
	if max != float64(total) {
		t.Fatalf("max = %g, want %g (newest observation)", max, float64(total))
	}
	// Window is [501, 4596]; p50 indexes int(0.5*(n-1)) = 2047 of the
	// sorted window, i.e. 501+2047.
	if want := float64(501 + (latencyRingSize-1)/2); p50 != want {
		t.Fatalf("p50 = %g, want %g (window must exclude overwritten entries)", p50, want)
	}
}

func TestLatencyRingTinyWindows(t *testing.T) {
	var empty latencyRing
	cnt, p50, p90, p99, max := empty.snapshot()
	if cnt != 0 || p50 != 0 || p90 != 0 || p99 != 0 || max != 0 {
		t.Fatalf("empty ring snapshot = (%d %g %g %g %g), want all zero", cnt, p50, p90, p99, max)
	}
	var one latencyRing
	one.observe(7.5)
	cnt, p50, p90, p99, max = one.snapshot()
	if cnt != 1 || p50 != 7.5 || p90 != 7.5 || p99 != 7.5 || max != 7.5 {
		t.Fatalf("n=1 snapshot = (%d %g %g %g %g), want every quantile 7.5", cnt, p50, p90, p99, max)
	}
}

func TestStatusKeyExhaustive(t *testing.T) {
	for status := 100; status <= 599; status++ {
		if got, want := statusKey(status), fmt.Sprintf("%d", status); got != want {
			t.Fatalf("statusKey(%d) = %q, want %q", status, got, want)
		}
	}
	for _, status := range []int{99, 1000, 0, -1, 99999} {
		if got := statusKey(status); got != "other" {
			t.Errorf("statusKey(%d) = %q, want other", status, got)
		}
	}
}
