package service

// End-to-end service tests over real HTTP (httptest). The acceptance
// properties pinned here: N concurrent identical solves produce exactly one
// underlying solver call (coalescing proven via the solveCalls counter and
// the /metrics document), repeat problems hit the LRU cache with the hit
// ratio reported in /metrics, a full queue yields 429 with a Retry-After
// header, infeasibility yields 409 with the classified reason, and
// deadlines yield 504.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/faultinject"
	"streamsched/internal/infeas"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/schedule"
	"streamsched/internal/sim"
)

// feasibleRequest returns a small solvable problem; vary work to make
// distinct problems (distinct hashes).
func feasibleRequest(work float64) SolveRequest {
	g := randgraph.Chain(6, work, 3)
	return SolveRequest{
		Graph:    GraphDTO(g),
		Platform: PlatformDTO(platform.Homogeneous(4, 1, 10)),
		Options:  Options{Eps: 1, Period: 40},
	}
}

// infeasibleRequest returns a problem with no schedule: one slow processor
// and a task that cannot fit the period.
func infeasibleRequest() SolveRequest {
	g := dag.New("too-heavy")
	g.AddTask("t0", 100)
	return SolveRequest{
		Graph:    GraphDTO(g),
		Platform: PlatformDTO(platform.Homogeneous(1, 1, 10)),
		Options:  Options{Period: 1},
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	enc, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getMetrics(t *testing.T, ts *httptest.Server) MetricsSnapshot {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gateSolves replaces srv.solve with a version that signals entry and
// blocks until released. Returns the release function.
func gateSolves(srv *Server) (entered func() int64, release func()) {
	var mu sync.Mutex
	var count int64
	block := make(chan struct{})
	orig := srv.solve
	srv.solve = func(ctx context.Context, sv *core.Solver, g *dag.Graph, p *platform.Platform) (*schedule.Schedule, error) {
		mu.Lock()
		count++
		mu.Unlock()
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return orig(ctx, sv, g, p)
	}
	entered = func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return count
	}
	release = func() { close(block) }
	return entered, release
}

func TestSolveCoalescingSolvesOnce(t *testing.T) {
	srv := New(Config{Workers: 2})
	entered, release := gateSolves(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	req := feasibleRequest(2)
	responses := make([]SolveResponse, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/solve", req)
			statuses[i] = resp.StatusCode
			json.Unmarshal(data, &responses[i])
		}(i)
	}
	// One leader entered the solver; the rest coalesce behind it. Only
	// release the gate once every follower is accounted for, so the test
	// proves coalescing rather than racing it.
	waitUntil(t, "leader to enter the solver", func() bool { return entered() >= 1 })
	waitUntil(t, "followers to coalesce", func() bool {
		return srv.m.coalesced.Load() == n-1
	})
	release()
	wg.Wait()

	var leaders, coalesced int
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%+v)", i, statuses[i], responses[i])
		}
		if responses[i].Schedule == nil {
			t.Fatalf("request %d: no schedule", i)
		}
		if responses[i].Coalesced {
			coalesced++
		} else if !responses[i].Cached {
			leaders++
		}
	}
	if leaders != 1 || coalesced != n-1 {
		t.Fatalf("want 1 leader and %d coalesced, got %d and %d", n-1, leaders, coalesced)
	}
	if got := entered(); got != 1 {
		t.Fatalf("underlying solver ran %d times, want exactly 1", got)
	}

	m := getMetrics(t, ts)
	if m.SolveCalls != 1 {
		t.Fatalf("/metrics solveCalls = %d, want 1", m.SolveCalls)
	}
	if m.Coalesced != n-1 {
		t.Fatalf("/metrics coalesced = %d, want %d", m.Coalesced, n-1)
	}

	// A later identical request is a cache hit, and the ratio is reported.
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached request: status %d", resp.StatusCode)
	}
	var cachedResp SolveResponse
	json.Unmarshal(data, &cachedResp)
	if !cachedResp.Cached {
		t.Fatal("repeat request not served from cache")
	}
	m = getMetrics(t, ts)
	if m.Cache.Hits < 1 || m.Cache.HitRatio <= 0 {
		t.Fatalf("cache stats not reported: %+v", m.Cache)
	}
	if got := entered(); got != 1 {
		t.Fatalf("cache hit re-solved: %d calls", got)
	}
}

func TestFullQueueRejectsWith429(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLimit: -1, RetryAfter: 3 * time.Second})
	entered, release := gateSolves(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only worker with problem A.
	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/solve", feasibleRequest(2))
		done <- resp.StatusCode
	}()
	waitUntil(t, "worker to be occupied", func() bool { return entered() == 1 })

	// A DIFFERENT problem (no coalescing possible) finds the queue full.
	enc, _ := json.Marshal(feasibleRequest(3))
	resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After header %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if ra != 3 {
		t.Fatalf("Retry-After = %d, want the configured 3s", ra)
	}

	release()
	if status := <-done; status != http.StatusOK {
		t.Fatalf("occupying request finished with %d", status)
	}
	m := getMetrics(t, ts)
	if m.Queue.Rejected != 1 {
		t.Fatalf("/metrics rejected = %d, want 1", m.Queue.Rejected)
	}
}

// TestFollowerSurvivesLeaderDeadline pins the detached-flight contract: a
// leader whose deadline expires gets its 504, but the computation keeps
// running, the follower gets its 200, and the result lands in the cache.
func TestFollowerSurvivesLeaderDeadline(t *testing.T) {
	srv := New(Config{Workers: 2})
	entered, release := gateSolves(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := feasibleRequest(2)
	leaderReq := req
	leaderReq.TimeoutMs = 50

	leaderStatus := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/solve", leaderReq)
		leaderStatus <- resp.StatusCode
	}()
	waitUntil(t, "leader flight to start", func() bool { return entered() == 1 })

	followerStatus := make(chan int, 1)
	var followerResp SolveResponse
	go func() {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/solve", req)
		json.Unmarshal(data, &followerResp)
		followerStatus <- resp.StatusCode
	}()
	waitUntil(t, "follower to coalesce", func() bool { return srv.m.coalesced.Load() == 1 })

	// The leader's 50ms deadline expires while the solve is gated.
	if status := <-leaderStatus; status != http.StatusGatewayTimeout {
		t.Fatalf("leader status %d, want 504", status)
	}
	release()
	if status := <-followerStatus; status != http.StatusOK {
		t.Fatalf("follower status %d, want 200 — the leader's deadline poisoned the flight", status)
	}
	if !followerResp.Coalesced || followerResp.Schedule == nil {
		t.Fatalf("follower response malformed: %+v", followerResp)
	}
	// The abandoned-then-completed work was cached, not wasted.
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/solve", req)
	var cached SolveResponse
	json.Unmarshal(data, &cached)
	if resp.StatusCode != http.StatusOK || !cached.Cached {
		t.Fatalf("result of the abandoned flight not cached: %d %+v", resp.StatusCode, cached)
	}
	if got := entered(); got != 1 {
		t.Fatalf("solver ran %d times, want 1", got)
	}
}

// TestBatchRespectsWorkerBound pins the admission invariant: a batch fans
// out through core.Batch, but its problems queue on the shared worker
// slots — concurrent solves never exceed Workers.
func TestBatchRespectsWorkerBound(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLimit: 100})
	entered, release := gateSolves(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	problems := make([]BatchProblem, 6)
	for i := range problems {
		r := feasibleRequest(float64(i + 2))
		problems[i] = BatchProblem{Graph: r.Graph, Platform: r.Platform}
	}
	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{
			Options:  Options{Eps: 1, Period: 40},
			Problems: problems,
		})
		done <- resp.StatusCode
	}()

	waitUntil(t, "two solves to occupy the workers", func() bool { return entered() == 2 })
	// With both slots held by gated solves, no further problem may enter
	// the solver no matter how wide the batch pool fans out.
	time.Sleep(50 * time.Millisecond)
	if got := entered(); got != 2 {
		t.Fatalf("%d concurrent solves with Workers=2", got)
	}
	if in := srv.m.inFlight.Load(); in != 2 {
		t.Fatalf("inFlight gauge %d, want 2", in)
	}
	release()
	if status := <-done; status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	m := getMetrics(t, ts)
	if m.SolveCalls != 6 {
		t.Fatalf("solveCalls %d, want 6", m.SolveCalls)
	}
}

// TestBatchAllRejectedReturns429 pins the envelope rule: when every
// problem of a batch is rejected by admission, the batch is a 429.
func TestBatchAllRejectedReturns429(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLimit: -1})
	entered, release := gateSolves(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only worker.
	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/solve", feasibleRequest(2))
		done <- resp.StatusCode
	}()
	waitUntil(t, "worker to be occupied", func() bool { return entered() == 1 })

	var problems []BatchProblem
	for i := 0; i < 3; i++ {
		r := feasibleRequest(float64(i + 3))
		problems = append(problems, BatchProblem{Graph: r.Graph, Platform: r.Platform})
	}
	enc, _ := json.Marshal(BatchRequest{Options: Options{Eps: 1, Period: 40}, Problems: problems})
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fully rejected batch: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 batch without Retry-After")
	}
	release()
	if status := <-done; status != http.StatusOK {
		t.Fatalf("occupying request finished with %d", status)
	}
}

// TestLeaderRechecksCacheAfterClaim pins the solve-once invariant across
// the flight-handoff race: a requester that missed the cache but won its
// Claim only after a previous flight fulfilled must serve the cached
// result, not re-solve.
func TestLeaderRechecksCacheAfterClaim(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := feasibleRequest(2)
	if resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/solve", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming solve: %d (%s)", resp.StatusCode, data)
	}

	// Reproduce the losing side of the race directly: the cache already
	// holds the result, yet this requester claims a fresh flight (its
	// cache.Get raced ahead of the previous flight's Put).
	sp := solveSpec(t, req)
	hash := ProblemHash(sp.Graph, sp.Platform, sp.Solver)
	srv.solve = func(context.Context, *core.Solver, *dag.Graph, *platform.Platform) (*schedule.Schedule, error) {
		t.Error("re-solved a problem that was already cached")
		return nil, context.Canceled
	}
	f, leader, err := srv.claimFlight(hash)
	if err != nil {
		t.Fatal(err)
	}
	if !leader {
		t.Fatal("flight unexpectedly in progress")
	}
	f.job = job{hash: hash, solve: sp}
	srv.lead(f, obs.SpanRef{})
	cached, _ := srv.cache.Get(hash)
	out, err := f.Wait(context.Background())
	if err != nil || len(out.ScheduleJSON) == 0 || !bytes.Equal(out.ScheduleJSON, cached.ScheduleJSON) {
		t.Fatalf("flight did not resolve from cache: %v %+v", err, out)
	}
	if m := srv.Metrics(); m.SolveCalls != 1 {
		t.Fatalf("solveCalls = %d, want 1", m.SolveCalls)
	}
}

func TestInfeasibleSolveReturns409WithReason(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/solve", infeasibleRequest())
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409 (%s)", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Infeasible == nil {
		t.Fatalf("no infeasible payload: %s", data)
	}
	if sr.Infeasible.Reason != infeas.ReasonPeriodExceeded {
		t.Fatalf("reason %v, want period-exceeded", sr.Infeasible.Reason)
	}

	// Infeasibility is deterministic, hence cached: repeat hits the cache.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/solve", infeasibleRequest())
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("repeat status %d, want 409", resp.StatusCode)
	}
	json.Unmarshal(data, &sr)
	if !sr.Cached {
		t.Fatal("repeat infeasible request not served from cache")
	}
}

func TestSolveDeadlineReturns504(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Enable(SiteFlightSlow, faultinject.Always().WithParam("5s"))
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := feasibleRequest(2)
	req.TimeoutMs = 50
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, data)
	}
}

func TestSolveRejectsMalformedRequests(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := map[string]any{
		"bad version": SolveRequest{SchemaVersion: 99, Graph: feasibleRequest(2).Graph,
			Platform: feasibleRequest(2).Platform, Options: Options{Period: 40}},
		"no period":  SolveRequest{Graph: feasibleRequest(2).Graph, Platform: feasibleRequest(2).Platform},
		"empty":      SolveRequest{},
		"bad option": func() any { r := feasibleRequest(2); r.Options.Algorithm = "hef"; return r }(),
	}
	for name, body := range cases {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/solve", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// Non-JSON body.
	resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-JSON: status %d, want 400", resp.StatusCode)
	}

	// GET on a POST route.
	getResp, err := ts.Client().Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", getResp.StatusCode)
	}
}

func TestBatchMixedProblems(t *testing.T) {
	srv := New(Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	feasible := feasibleRequest(2)
	infeasible := infeasibleRequest()
	req := BatchRequest{
		Options: Options{Eps: 1, Period: 40},
		Problems: []BatchProblem{
			{Graph: feasible.Graph, Platform: feasible.Platform},
			{Graph: feasible.Graph, Platform: feasible.Platform}, // duplicate → coalesces in-batch
			{Graph: infeasible.Graph, Platform: infeasible.Platform, Options: &infeasible.Options},
			{Graph: Graph{}, Platform: feasible.Platform}, // malformed → per-item error
		},
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(br.Results))
	}
	if br.Results[0].Schedule == nil || br.Results[0].Error != "" {
		t.Fatalf("result 0: want schedule, got %+v", br.Results[0])
	}
	if br.Results[1].Schedule == nil || !br.Results[1].Coalesced {
		t.Fatalf("result 1: want coalesced schedule, got %+v", br.Results[1])
	}
	if !bytes.Equal(br.Results[0].Schedule, br.Results[1].Schedule) {
		t.Fatal("duplicate problems returned different schedules")
	}
	if br.Results[2].Infeasible == nil {
		t.Fatalf("result 2: want infeasible, got %+v", br.Results[2])
	}
	if br.Results[3].Error == "" {
		t.Fatalf("result 3: want per-item error, got %+v", br.Results[3])
	}

	m := getMetrics(t, ts)
	// The duplicate coalesced: 2 solves (feasible + infeasible), not 3.
	if m.SolveCalls != 2 {
		t.Fatalf("solveCalls = %d, want 2", m.SolveCalls)
	}
	if m.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", m.Coalesced)
	}
}

func TestSimulateMatchesDirectEngineRuns(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := feasibleRequest(2)
	req := SimulateRequest{
		Graph:    base.Graph,
		Platform: base.Platform,
		Options:  base.Options,
		Scenarios: []Scenario{
			{Name: "free"},
			{Name: "sync", Synchronous: true},
			{Name: "crash", CrashProcs: []int{0}, CrashAt: 5},
			{Name: "sized", Items: 30, Warmup: 10},
		},
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, data)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Scenarios) != 4 {
		t.Fatalf("got %d scenario results, want 4", len(sr.Scenarios))
	}
	if sr.Summary == nil || sr.Summary.Stages <= 0 {
		t.Fatalf("missing summary: %+v", sr.Summary)
	}

	// Reproduce directly: same solver, one engine reused across scenarios.
	sp := solveSpec(t, base)
	sched, err := sp.Solver.Solve(context.Background(), sp.Graph, sp.Platform)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(sched)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range req.Scenarios {
		cfg := sim.DefaultConfig(sched)
		if sc.Items > 0 {
			cfg.Items = sc.Items
		}
		if sc.Warmup > 0 {
			cfg.Warmup = sc.Warmup
		}
		cfg.Synchronous = sc.Synchronous
		if len(sc.CrashProcs) > 0 {
			cfg.Failures = sim.FailureSpec{Procs: []platform.ProcID{0}, At: sc.CrashAt}
		}
		want, err := eng.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := sr.Scenarios[i]
		if got.Delivered != want.Delivered || got.Items != want.Items {
			t.Errorf("%s: delivered/items %d/%d, want %d/%d",
				sc.Name, got.Delivered, got.Items, want.Delivered, want.Items)
		}
		if (got.MeanLatency == nil) != (len(want.Latencies) == 0) {
			t.Errorf("%s: meanLatency nil-ness mismatch", sc.Name)
		}
		if got.MeanLatency != nil && *got.MeanLatency != want.MeanLatency {
			t.Errorf("%s: meanLatency %v, want %v", sc.Name, *got.MeanLatency, want.MeanLatency)
		}
	}

	// The in-process API returns the very results the HTTP reply carried.
	out, results, err := srv.Simulate(context.Background(), sp, req.Scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if out.Hash != sr.Hash || !out.Cached || !reflect.DeepEqual(results, sr.Scenarios) {
		t.Fatalf("Handle.Simulate = %s cached=%v %+v, want the HTTP reply's %s %+v", out.Hash, out.Cached, results, sr.Hash, sr.Scenarios)
	}

	// The simulate solve shares the /v1/solve hash space: the same problem
	// posted to /v1/solve now hits the cache.
	solveResp, solveData := postJSON(t, ts.Client(), ts.URL+"/v1/solve", base)
	if solveResp.StatusCode != http.StatusOK {
		t.Fatalf("solve after simulate: %d", solveResp.StatusCode)
	}
	var cached SolveResponse
	json.Unmarshal(solveData, &cached)
	if !cached.Cached {
		t.Fatal("solve after simulate missed the shared cache")
	}
}

func TestSimulateValidatesCrashProcs(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := feasibleRequest(2)
	req := SimulateRequest{
		Graph: base.Graph, Platform: base.Platform, Options: base.Options,
		Scenarios: []Scenario{{CrashProcs: []int{99}}},
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, data)
	}
}

// TestSimulateRejectsOversizedScenario pins the scenario bound: more items
// than maxScenarioSlots holds for the graph's exit tasks is a 400 with the
// stable token, decided before admission and before the solve — not a
// simulator allocation sized by the client, which no deadline interrupts.
func TestSimulateRejectsOversizedScenario(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := feasibleRequest(2) // a chain: one exit task
	req := SimulateRequest{
		Graph: base.Graph, Platform: base.Platform, Options: base.Options,
		Scenarios: []Scenario{{Name: "dataflow"}, {Name: "huge", Items: maxScenarioSlots + 1}},
		TimeoutMs: 500,
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", req)
	var sr SimulateResponse
	json.Unmarshal(data, &sr)
	if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(sr.Error, ReasonScenarioTooLarge+":") {
		t.Fatalf("status %d (%s), want 400 with %q", resp.StatusCode, data, ReasonScenarioTooLarge)
	}
	if m := srv.Metrics(); m.SolveCalls != 0 || m.SimRuns != 0 {
		t.Fatalf("rejected scenario still ran %d solves and %d simulations", m.SolveCalls, m.SimRuns)
	}

	// The bound divides among the exit tasks, and the in-process API
	// applies it too.
	g := dag.New("three-exits")
	for i := 0; i < 3; i++ {
		g.AddTask(fmt.Sprintf("t%d", i), 1)
	}
	sp := solveSpec(t, SolveRequest{Graph: GraphDTO(g), Platform: base.Platform, Options: base.Options})
	if err := checkScenarios([]Scenario{{Items: maxScenarioSlots / 3}}, sp); err != nil {
		t.Fatalf("scenario at the bound rejected: %v", err)
	}
	_, _, err := srv.Simulate(context.Background(), sp, []Scenario{{Items: maxScenarioSlots/3 + 1}})
	if err == nil || !strings.HasPrefix(err.Error(), ReasonScenarioTooLarge+":") {
		t.Fatalf("Handle.Simulate past the bound: %v", err)
	}
	if m := srv.Metrics(); m.SolveCalls != 0 {
		t.Fatalf("in-process rejection ran %d solves", m.SolveCalls)
	}
}

func TestHealthz(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("status field %v", body["status"])
	}
}

func TestCacheEvictionIsBounded(t *testing.T) {
	srv := New(Config{CacheEntries: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 10; i++ {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/solve", feasibleRequest(float64(i+1)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d (%s)", i, resp.StatusCode, data)
		}
	}
	m := getMetrics(t, ts)
	if m.Cache.Entries > 4 {
		t.Fatalf("cache grew to %d entries, capacity 4", m.Cache.Entries)
	}
	if m.Cache.Capacity != 4 {
		t.Fatalf("capacity reported as %d", m.Cache.Capacity)
	}
}

func TestLRUCacheSemantics(t *testing.T) {
	c := newLRUCache(2)
	o := func(detail string) Outcome {
		return Outcome{Infeasible: infeas.New(infeas.ReasonUnknown, 0, detail)}
	}
	c.Put("a", o("a"))
	c.Put("b", o("b"))
	if _, ok := c.Get("a"); !ok { // refresh a → b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", o("c")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		out, ok := c.Get(k)
		if !ok || out.Infeasible.Detail != k {
			t.Fatalf("%s lost or corrupted", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1}, {time.Millisecond, 1}, {time.Second, 1}, {1500 * time.Millisecond, 2}, {3 * time.Second, 3},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestMetricsLatencyPercentiles(t *testing.T) {
	var r latencyRing
	for i := 1; i <= 100; i++ {
		r.observe(float64(i))
	}
	cnt, p50, p90, p99, max := r.snapshot()
	if cnt != 100 || max != 100 {
		t.Fatalf("cnt=%d max=%v", cnt, max)
	}
	if p50 < 45 || p50 > 55 || p90 < 85 || p90 > 95 || p99 < 95 || p99 > 100 {
		t.Fatalf("percentiles off: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
}

func ExampleProblemHash() {
	g := randgraph.Chain(3, 1, 1)
	p := platform.Homogeneous(2, 1, 10)
	sv, _ := core.NewSolver(core.WithPeriod(10))
	h := ProblemHash(g, p, sv)
	fmt.Println(len(h))
	// Output: 64
}

// TestWriteJSONMatchesEncoder pins writeJSON's verbatim schedule splice to
// the bytes json.Encoder writes for the same envelope: a reply with every
// envelope field set and strings that need escaping (one that spells the
// placeholder's slot among them), a batch whose elements alternate with
// and without a schedule, and a body with no schedule at all.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	sched := func(name string) json.RawMessage {
		raw, err := json.Marshal(map[string]any{"graph": name, "replicas": []int{1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	full := SolveResponse{
		SchemaVersion: Version,
		Hash:          `"schedule":0 <&>`,
		Cached:        true,
		Coalesced:     true,
		Schedule:      sched("<a> & \"b\" \\ \u2028 \xff"),
		Summary:       &ScheduleSummary{Algorithm: `"schedule":0`, Stages: 2, LatencyBound: 30, Makespan: 4.5, CrossComms: 1},
		Replan:        &ReplanStats{Replayed: 1, Repaired: 2},
		Infeasible:    infeas.New(infeas.ReasonPeriodExceeded, 0, `"schedule":0`),
		Scenarios:     []ScenarioResult{{Name: `"schedule":0`, Delivered: 3, Items: 4}},
		Error:         `"schedule":0`,
	}
	batch := &BatchResponse{SchemaVersion: Version, Results: []SolveResponse{
		full,
		{SchemaVersion: Version, Hash: "h", Error: "no schedule"},
		{SchemaVersion: Version, Hash: "h2", Schedule: sched("second")},
	}}
	srv := New(Config{})
	for _, tc := range []struct {
		name string
		body any
	}{
		{"full reply", full},
		{"batch", batch},
		{"error", SolveResponse{SchemaVersion: Version, Error: "boom"}},
		{"map", map[string]any{"status": "ok"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(tc.body); err != nil {
				t.Fatal(err)
			}
			var schedules [][]byte
			switch b := tc.body.(type) {
			case SolveResponse:
				schedules = detachSchedule(&b, nil)
				tc.body = b
			case *BatchResponse:
				detached := *b
				detached.Results = append([]SolveResponse(nil), b.Results...)
				for i := range detached.Results {
					schedules = detachSchedule(&detached.Results[i], schedules)
				}
				tc.body = &detached
			}
			rec := httptest.NewRecorder()
			srv.writeJSON(rec, http.StatusOK, tc.body, schedules...)
			if got := rec.Body.String(); got != want.String() {
				t.Fatalf("writeJSON differs from json.Encoder:\n got %s\nwant %s", got, want.String())
			}
		})
	}
}
