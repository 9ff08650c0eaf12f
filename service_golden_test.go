package streamsched_test

// Golden pin for the scheduling service's HTTP replies. One fixed request
// sequence walks every /v1 route through its success, cache-hit,
// infeasible and error classes, then a drain and the /metrics request and
// response counters; every reply's status, Content-Type, Retry-After,
// Allow and body must match testdata/golden/service_replies.txt byte for
// byte. Regenerate with
//
//	go test -run TestGoldenServiceReplies -update-golden .
//
// only when a reply is meant to change — never to paper over a rendering
// break.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamsched"
	"streamsched/internal/dag"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
)

func TestGoldenServiceReplies(t *testing.T) {
	srv := streamsched.NewService(streamsched.ServiceConfig{Workers: 2, MaxBodyBytes: 64 << 10})
	h := srv.Handler()
	var b strings.Builder
	send := func(label, method, path string, body []byte) []byte {
		t.Helper()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&b, "--- %s: %s %s\n", label, method, path)
		fmt.Fprintf(&b, "status=%d content-type=%q retry-after=%q allow=%q\n", rec.Code,
			rec.Header().Get("Content-Type"), rec.Header().Get("Retry-After"), rec.Header().Get("Allow"))
		b.Write(rec.Body.Bytes())
		return rec.Body.Bytes()
	}
	post := func(label, path string, v any) []byte {
		t.Helper()
		enc, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return send(label, http.MethodPost, path, enc)
	}

	graph := streamsched.NewWireGraph(randgraph.Chain(6, 2, 3))
	plat := streamsched.NewWirePlatform(platform.Homogeneous(4, 1, 10))
	opts := streamsched.WireOptions{Eps: 1, Period: 40}
	heavy := dag.New("too-heavy")
	heavy.AddTask("t0", 100)
	infGraph := streamsched.NewWireGraph(heavy)
	infPlat := streamsched.NewWirePlatform(platform.Homogeneous(1, 1, 10))
	infOpts := streamsched.WireOptions{Period: 1}
	feasible := streamsched.WireSolveRequest{Graph: graph, Platform: plat, Options: opts}
	infeasible := streamsched.WireSolveRequest{Graph: infGraph, Platform: infPlat, Options: infOpts}

	// solve
	var solved streamsched.WireSolveResponse
	if err := json.Unmarshal(post("solve/feasible", "/v1/solve", feasible), &solved); err != nil || solved.Schedule == nil {
		t.Fatalf("feasible solve: %v", err)
	}
	post("solve/cached", "/v1/solve", feasible)
	post("solve/infeasible", "/v1/solve", infeasible)

	// replan
	replan := func(sched json.RawMessage, delta streamsched.WirePlatformDelta) streamsched.WireReplanRequest {
		return streamsched.WireReplanRequest{Graph: graph, Platform: plat, Options: opts, Schedule: sched, Delta: delta}
	}
	speedUp := streamsched.WirePlatformDelta{Speed: []streamsched.WireProcSpeed{{Proc: 1, Speed: 2}}}
	post("replan/speed", "/v1/replan", replan(solved.Schedule, speedUp))
	post("replan/cached", "/v1/replan", replan(solved.Schedule, speedUp))
	post("replan/lost-processor", "/v1/replan", replan(solved.Schedule, streamsched.WirePlatformDelta{Lost: []int{3}}))
	post("replan/malformed-schedule", "/v1/replan", replan(json.RawMessage(`{"eps":1}`), speedUp))
	post("replan/missing-schedule", "/v1/replan", map[string]any{"graph": graph, "platform": plat, "options": opts, "delta": speedUp})

	// batch
	post("batch/mixed", "/v1/batch", streamsched.WireBatchRequest{
		Options: opts,
		Problems: []streamsched.WireBatchProblem{
			{Graph: graph, Platform: plat},
			{Graph: infGraph, Platform: infPlat, Options: &infOpts},
			{Graph: streamsched.WireGraph{}, Platform: plat},
		},
	})
	post("batch/empty", "/v1/batch", streamsched.WireBatchRequest{Options: opts})

	// simulate
	post("simulate/scenarios", "/v1/simulate", streamsched.WireSimulateRequest{
		Graph: graph, Platform: plat, Options: opts,
		Scenarios: []streamsched.WireScenario{
			{Name: "dataflow", Items: 30},
			{Name: "sync-crash", Items: 30, Synchronous: true, CrashProcs: []int{0}, CrashAt: 50},
		},
	})
	post("simulate/infeasible", "/v1/simulate", streamsched.WireSimulateRequest{Graph: infGraph, Platform: infPlat, Options: infOpts})
	post("simulate/bad-crash-proc", "/v1/simulate", streamsched.WireSimulateRequest{
		Graph: graph, Platform: plat, Options: opts,
		Scenarios: []streamsched.WireScenario{{CrashProcs: []int{9}}},
	})

	// escaping: graph and task names that encoding/json escapes — the
	// HTML-significant <, > and &, a quote, a backslash, U+2028 and an
	// invalid UTF-8 byte (which the request encoding already turns into
	// U+FFFD) — through a solve, its cache hit and a batch.
	const odd = "<a> & \"b\" \\ \u2028 \xff"
	oddDAG := dag.New("esc " + odd)
	oddPrev := oddDAG.AddTask("src "+odd, 2)
	for i := 1; i < 4; i++ {
		oddCur := oddDAG.AddTask(fmt.Sprintf("t%d %s", i, odd), 2)
		oddDAG.MustAddEdge(oddPrev, oddCur, 3)
		oddPrev = oddCur
	}
	oddSolve := streamsched.WireSolveRequest{Graph: streamsched.NewWireGraph(oddDAG), Platform: plat, Options: opts}
	post("escaping/solve", "/v1/solve", oddSolve)
	post("escaping/cached", "/v1/solve", oddSolve)
	post("escaping/batch", "/v1/batch", streamsched.WireBatchRequest{
		Options:  opts,
		Problems: []streamsched.WireBatchProblem{{Graph: oddSolve.Graph, Platform: plat}, {Graph: graph, Platform: plat}},
	})

	// errors
	send("error/method", http.MethodGet, "/v1/solve", nil)
	send("error/bad-json", http.MethodPost, "/v1/solve", []byte(`{"graph":`))
	post("error/schema", "/v1/solve", streamsched.WireSolveRequest{SchemaVersion: 99, Graph: graph, Platform: plat, Options: opts})
	post("error/bad-graph", "/v1/solve", streamsched.WireSolveRequest{Platform: plat, Options: opts})
	send("error/too-large", http.MethodPost, "/v1/solve", []byte(`{"graph":{"name":"`+strings.Repeat("x", 70<<10)+`"}}`))

	// drain: every route refuses with 503 + Retry-After, cached or not.
	srv.Drain(context.Background())
	post("drain/solve", "/v1/solve", feasible)
	post("drain/replan", "/v1/replan", replan(solved.Schedule, speedUp))
	post("drain/batch", "/v1/batch", streamsched.WireBatchRequest{Options: opts, Problems: []streamsched.WireBatchProblem{{Graph: graph, Platform: plat}}})
	post("drain/simulate", "/v1/simulate", streamsched.WireSimulateRequest{Graph: graph, Platform: plat, Options: opts})

	// The request and response counters of everything above.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m struct{ Requests, Responses json.RawMessage }
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "--- metrics\nrequests=%s\nresponses=%s\n", m.Requests, m.Responses)

	got := b.String()
	path := filepath.Join("testdata", "golden", "service_replies.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("service replies diverge from golden %s:\n got %s\nwant %s", path, got, want)
	}
}
