package service

// /v1/replan end-to-end tests. The acceptance properties pinned here:
// a replan round-trips (200 with a schedule, a summary and the repair
// statistics; the repeat is a cache hit), malformed requests — unsupported
// schema version, options/schedule mismatch, a structurally broken
// schedule, invalid delta, negative budget — are 400s decided before any
// work is admitted, an exceeded
// budget with the cold fallback disabled is a 409, N concurrent identical
// replans coalesce into exactly one underlying computation, and replan
// and solve traffic share the cache without poisoning each other's
// entries (disjoint hash key spaces).

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"streamsched/internal/core"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
)

// replanRequest builds a valid /v1/replan payload: the feasibleRequest
// problem solved in-process, plus delta.
func replanRequest(t testing.TB, work float64, delta PlatformDelta) ReplanRequest {
	t.Helper()
	base := feasibleRequest(work)
	sp := solveSpec(t, base)
	sched, err := sp.Solver.Solve(context.Background(), sp.Graph, sp.Platform)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(sched)
	if err != nil {
		t.Fatal(err)
	}
	return ReplanRequest{
		Graph:    base.Graph,
		Platform: base.Platform,
		Options:  base.Options,
		Schedule: raw,
		Delta:    delta,
	}
}

func TestReplanEndToEnd(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := replanRequest(t, 2, PlatformDelta{Speed: []ProcSpeed{{Proc: 1, Speed: 2}}})
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/replan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, data)
	}
	var rr ReplanResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Schedule == nil || rr.Summary == nil || rr.Replan == nil {
		t.Fatalf("incomplete response: %s", data)
	}
	if rr.Cached || rr.Coalesced {
		t.Fatalf("first replan reported cached=%v coalesced=%v", rr.Cached, rr.Coalesced)
	}
	if n := rr.Replan.Replayed + rr.Replan.Preserved + rr.Replan.Repaired; !rr.Replan.ColdSolve && n == 0 {
		t.Fatalf("repair stats cover no tasks: %+v", rr.Replan)
	}

	// The repaired schedule decodes and validates against the post-delta
	// platform.
	sp, err := buildProblem(req.Graph, req.Platform, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	newP, _, err := req.Delta.Build().Apply(sp.Platform)
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := schedule.LoadJSON(rr.Schedule, sp.Graph, newP)
	if err != nil {
		t.Fatalf("decoding repaired schedule: %v", err)
	}
	if err := repaired.Validate(); err != nil {
		t.Fatalf("repaired schedule invalid: %v", err)
	}

	// The repeat is a cache hit with the same stats.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/replan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	var rr2 ReplanResponse
	json.Unmarshal(data, &rr2)
	if !rr2.Cached {
		t.Fatal("repeat replan not served from cache")
	}
	if rr2.Replan == nil || *rr2.Replan != *rr.Replan {
		t.Fatalf("cached stats %+v differ from original %+v", rr2.Replan, rr.Replan)
	}
	if m := getMetrics(t, ts); m.Requests["replan"] != 2 {
		t.Fatalf("/metrics replan requests = %d, want 2", m.Requests["replan"])
	}
}

// malformedReplans returns good under each malformation a /v1/replan
// must refuse with a 400 before any work is admitted. good must come from
// replanRequest.
func malformedReplans(tb testing.TB, good ReplanRequest) map[string]ReplanRequest {
	tb.Helper()
	// badSchedule rewrites the committed schedule; rep is the first replica
	// that receives an input, which in the chain instance is not a source.
	badSchedule := func(f func(sched, rep map[string]any)) ReplanRequest {
		var sched map[string]any
		if err := json.Unmarshal(good.Schedule, &sched); err != nil {
			tb.Fatal(err)
		}
		var rep map[string]any
		for _, r := range sched["replicas"].([]any) {
			if in, _ := r.(map[string]any)["in"].([]any); len(in) > 0 {
				rep = r.(map[string]any)
				break
			}
		}
		if rep == nil {
			tb.Fatal("no replica with an input transfer")
		}
		f(sched, rep)
		raw, err := json.Marshal(sched)
		if err != nil {
			tb.Fatal(err)
		}
		r := good
		r.Schedule = raw
		return r
	}
	with := func(f func(r *ReplanRequest)) ReplanRequest { r := good; f(&r); return r }
	return map[string]ReplanRequest{
		"bad version":      with(func(r *ReplanRequest) { r.SchemaVersion = 99 }),
		"no schedule":      with(func(r *ReplanRequest) { r.Schedule = nil }),
		"options mismatch": with(func(r *ReplanRequest) { r.Options.Eps = 0 }), // schedule was solved at eps=1
		"bad delta":        with(func(r *ReplanRequest) { r.Delta = PlatformDelta{Lost: []int{99}} }),
		"negative budget":  with(func(r *ReplanRequest) { r.RepairBudget = -1 }),
		// Structurally broken committed schedules are refused while
		// decoding: no panic inside the handler, no solve, and no ε taken
		// from the body sizes an allocation.
		"schedule copy 7 at eps 1": badSchedule(func(_, rep map[string]any) { rep["copy"] = 7 }),
		"schedule task 999":        badSchedule(func(_, rep map[string]any) { rep["task"] = 999 }),
		"schedule task -1":         badSchedule(func(_, rep map[string]any) { rep["task"] = -1 }),
		"schedule proc 999":        badSchedule(func(_, rep map[string]any) { rep["proc"] = 999 }),
		"schedule replica listed twice": badSchedule(func(sched, rep map[string]any) {
			sched["replicas"] = append(sched["replicas"].([]any), rep)
		}),
		"schedule replica missing": badSchedule(func(sched, _ map[string]any) {
			reps := sched["replicas"].([]any)
			sched["replicas"] = reps[:len(reps)-1]
		}),
		"schedule eps 2147483648": badSchedule(func(sched, _ map[string]any) { sched["eps"] = 2147483648 }),
		"schedule input from a non-predecessor": badSchedule(func(_, rep map[string]any) {
			rep["in"].([]any)[0].(map[string]any)["fromTask"] = rep["task"]
		}),
	}
}

func TestReplanRejectsMalformedRequests(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	good := replanRequest(t, 2, PlatformDelta{Speed: []ProcSpeed{{Proc: 1, Speed: 2}}})
	for name, req := range malformedReplans(t, good) {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/replan", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, data)
		}
		if name == "bad version" {
			var rr ReplanResponse
			json.Unmarshal(data, &rr)
			if !strings.HasPrefix(rr.Error, ReasonUnsupportedSchema) {
				t.Errorf("bad version error %q does not start with the stable token %q", rr.Error, ReasonUnsupportedSchema)
			}
		}
	}
	if m := srv.Metrics(); m.Panics != 0 || m.SolveCalls != 0 {
		t.Fatalf("panics = %d, solveCalls = %d after malformed requests, want 0 and 0", m.Panics, m.SolveCalls)
	}
}

// TestReplanBudgetConflict: a replan whose repair budget is exceeded with
// the cold fallback disabled is a 409 — no result exists under the
// requested policy.
func TestReplanBudgetConflict(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Measure how many search placements losing processor 0 needs.
	probe := replanRequest(t, 2, PlatformDelta{Lost: []int{0}})
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/replan", probe)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe status %d (%s)", resp.StatusCode, data)
	}
	var rr ReplanResponse
	json.Unmarshal(data, &rr)
	if rr.Replan == nil || rr.Replan.ColdSolve || rr.Replan.Repaired < 2 {
		t.Skipf("instance repaired with stats %+v; the budget test needs ≥ 2 search placements", rr.Replan)
	}

	under := probe
	under.RepairBudget = 1
	under.NoColdFallback = true
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/replan", under)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("under-budget status %d, want 409 (%s)", resp.StatusCode, data)
	}

	// The same budget with the fallback enabled re-solves cold instead.
	fallback := probe
	fallback.RepairBudget = 1
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/replan", fallback)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback status %d (%s)", resp.StatusCode, data)
	}
	var fr ReplanResponse
	json.Unmarshal(data, &fr)
	if fr.Replan == nil || !fr.Replan.ColdSolve {
		t.Fatalf("fallback stats %+v, want ColdSolve", fr.Replan)
	}
}

// gateReplans is gateSolves for the replan hook.
func gateReplans(srv *Server) (entered func() int64, release func()) {
	var mu sync.Mutex
	var count int64
	block := make(chan struct{})
	orig := srv.replan
	srv.replan = func(ctx context.Context, sv *core.Solver, old *schedule.Schedule, d core.Delta, opts ...core.ReplanOption) (*core.ReplanResult, error) {
		mu.Lock()
		count++
		mu.Unlock()
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return orig(ctx, sv, old, d, opts...)
	}
	entered = func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return count
	}
	release = func() { close(block) }
	return entered, release
}

func TestReplanCoalescingComputesOnce(t *testing.T) {
	srv := New(Config{Workers: 2})
	entered, release := gateReplans(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	req := replanRequest(t, 2, PlatformDelta{Lost: []int{0}})
	responses := make([]ReplanResponse, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/replan", req)
			statuses[i] = resp.StatusCode
			json.Unmarshal(data, &responses[i])
		}(i)
	}
	waitUntil(t, "leader to enter the replan", func() bool { return entered() >= 1 })
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
		t.Fatalf("underlying replan ran %d times, want exactly 1", got)
	}
	if m := getMetrics(t, ts); m.SolveCalls != 1 {
		t.Fatalf("/metrics solveCalls = %d, want 1", m.SolveCalls)
	}
}

// TestReplanAndSolveShareCacheWithoutPoisoning races /v1/solve and
// /v1/replan over the same underlying problem and asserts neither
// contaminates the other's cache entry: the solve key and the replan key
// are distinct by construction (distinct hash magics), so the repeat of
// each is a cache hit of its own kind — the solve hit carries no repair
// stats, the replan hit does.
func TestReplanAndSolveShareCacheWithoutPoisoning(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	solveReq := feasibleRequest(2)
	replanReq := replanRequest(t, 2, PlatformDelta{Speed: []ProcSpeed{{Proc: 1, Speed: 2}}})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/solve", solveReq)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("racing solve: status %d", resp.StatusCode)
			}
		}()
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/replan", replanReq)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("racing replan: status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/solve", solveReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat solve: status %d", resp.StatusCode)
	}
	var sr SolveResponse
	json.Unmarshal(data, &sr)
	if !sr.Cached || sr.Schedule == nil {
		t.Fatalf("repeat solve not a clean cache hit: cached=%v", sr.Cached)
	}
	if sr.Hash == "" {
		t.Fatal("solve hash missing")
	}

	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/replan", replanReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat replan: status %d", resp.StatusCode)
	}
	var rr ReplanResponse
	json.Unmarshal(data, &rr)
	if !rr.Cached || rr.Schedule == nil || rr.Replan == nil {
		t.Fatalf("repeat replan not a clean cache hit: cached=%v replan=%+v", rr.Cached, rr.Replan)
	}
	if rr.Hash == sr.Hash {
		t.Fatal("replan and solve share a cache key")
	}
}

// TestHandleReplanInProcess exercises the public in-process API without
// HTTP: Solve and Replan against one Handle, sharing the cache.
func TestHandleReplanInProcess(t *testing.T) {
	h := NewHandle(Config{})
	sp := solveSpec(t, feasibleRequest(2))
	sv := sp.Solver
	out, err := h.Solve(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schedule == nil || out.Infeasible != nil {
		t.Fatalf("solve outcome: %+v", out)
	}

	rout, err := h.Replan(context.Background(), ReplanSpec{
		Old:    out.Schedule,
		Solver: sv,
		Delta:  core.Delta{Lost: []platform.ProcID{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rout.Schedule == nil || rout.Replan == nil {
		t.Fatalf("replan outcome: %+v", rout)
	}
	if rout.Schedule.P.NumProcs() != sp.Platform.NumProcs()-1 {
		t.Fatalf("replanned platform has %d processors", rout.Schedule.P.NumProcs())
	}

	// The repeat is a cache hit; the metrics snapshot reports it.
	rout2, err := h.Replan(context.Background(), ReplanSpec{
		Old:    out.Schedule,
		Solver: sv,
		Delta:  core.Delta{Lost: []platform.ProcID{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rout2.Cached {
		t.Fatal("repeat in-process replan not served from cache")
	}
	if m := h.Metrics(); m.SolveCalls != 2 || m.Cache.Hits != 1 {
		t.Fatalf("metrics: %d solve calls, %d hits", m.SolveCalls, m.Cache.Hits)
	}

	// Validation errors surface synchronously.
	if _, err := h.Replan(context.Background(), ReplanSpec{Solver: sv}); err == nil {
		t.Fatal("nil schedule: expected error")
	}
	if _, err := h.Solve(context.Background(), Spec{}); err == nil {
		t.Fatal("empty spec: expected error")
	}
}
