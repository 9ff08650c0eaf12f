package service

// Chaos suite (DESIGN.md §11): the crash-tolerance properties, pinned
// against deterministic fault injection and — for the kill -9 path — a
// real streamschedd process. The in-process tests arm faultinject sites
// (global registry: no t.Parallel here, Reset in cleanup); the e2e test
// builds the daemon binary and is skipped under -short so the race-enabled
// unit lane stays fast (the chaos CI lane runs it without -short).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"streamsched/internal/faultinject"
)

// solveSpec decodes one SolveRequest into an in-process Spec.
func solveSpec(t testing.TB, req SolveRequest) Spec {
	t.Helper()
	sp, err := buildProblem(req.Graph, req.Platform, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestInjectedLeaderPanicIsolation pins the panic isolation contract: the
// leader of a panicking flight reports the internal-panic failure, its
// coalesced followers retry and succeed, and no admission slot leaks.
func TestInjectedLeaderPanicIsolation(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	srv := New(Config{Workers: 2})
	// The slow site holds the first flight open so every concurrent
	// requester coalesces onto it before the panic fires.
	faultinject.Enable(SiteFlightSlow, faultinject.Always().WithParam("300ms"))
	faultinject.Enable(SiteFlightPanic, faultinject.Nth(1))

	spec := solveSpec(t, feasibleRequest(2))
	const n = 6
	outs := make([]Outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = srv.Solve(context.Background(), spec)
		}(i)
	}
	wg.Wait()

	var panicked, solved int
	for i := 0; i < n; i++ {
		switch {
		case errs[i] == nil:
			solved++
			if outs[i].Schedule == nil {
				t.Fatalf("request %d: nil schedule without an error", i)
			}
		case errors.Is(errs[i], ErrInternalPanic):
			panicked++
		default:
			t.Fatalf("request %d: unexpected error %v", i, errs[i])
		}
	}
	if panicked != 1 || solved != n-1 {
		t.Fatalf("panicked=%d solved=%d, want exactly the leader failing and %d followers succeeding", panicked, solved, n-1)
	}
	m := srv.Metrics()
	if m.Panics != 1 {
		t.Fatalf("panics counter = %d, want 1", m.Panics)
	}
	if m.SolveCalls != 1 {
		t.Fatalf("solveCalls = %d, want 1 (the panicking flight never reached the solver)", m.SolveCalls)
	}
	// No leaked admission slots: the gauges settle to zero and the full
	// worker capacity still admits fresh work.
	waitUntil(t, "admission gauges to settle", func() bool {
		m := srv.Metrics()
		return m.Queue.Depth == 0 && m.Queue.InFlight == 0
	})
	faultinject.Reset()
	for i := 0; i < 3; i++ {
		if _, err := srv.Solve(context.Background(), solveSpec(t, feasibleRequest(float64(10+i)))); err != nil {
			t.Fatalf("post-panic solve %d: %v (leaked admission slot?)", i, err)
		}
	}
}

// TestBatchFollowerSurvivesForeignPanic is the same contract through the
// batch pipeline: an element coalesced onto a panicking flight retries
// instead of inheriting the leader's failure.
func TestBatchFollowerSurvivesForeignPanic(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	srv := New(Config{Workers: 2})
	faultinject.Enable(SiteFlightPanic, faultinject.Nth(1))

	spec := solveSpec(t, feasibleRequest(2))
	res := srv.SolveBatch(context.Background(), []Spec{spec, spec})
	if !errors.Is(res[0].Err, ErrInternalPanic) {
		t.Fatalf("leader element error = %v, want internal-panic", res[0].Err)
	}
	if res[1].Err != nil || res[1].Outcome.Schedule == nil {
		t.Fatalf("coalesced element poisoned by the leader's panic: err=%v", res[1].Err)
	}
	if m := srv.Metrics(); m.Panics != 1 {
		t.Fatalf("panics counter = %d, want 1", m.Panics)
	}
}

// TestDrainUnderLoadLosesNoCommittedEntries pins the drain guarantee:
// every solve that reported success before or during the drain has its
// entry in the spilled snapshot, byte-identical, and a restart serves all
// of them as cache hits without a solver call.
func TestDrainUnderLoadLosesNoCommittedEntries(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Enable(SiteFlightSlow, faultinject.Always().WithParam("2ms"))
	snap := filepath.Join(t.TempDir(), "cache.snap")
	srv := New(Config{Workers: 4, QueueLimit: 64, SnapshotPath: snap, SnapshotInterval: -1})
	if _, _, err := srv.WarmStart(); err != nil {
		t.Fatal(err)
	}

	const n = 24
	outs := make([]Outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = srv.Solve(context.Background(), solveSpec(t, feasibleRequest(float64(i+1))))
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let part of the load get admitted
	rep := srv.Drain(context.Background())
	wg.Wait()
	if rep.SnapshotErr != nil {
		t.Fatalf("drain spill: %v", rep.SnapshotErr)
	}
	if rep.FlightsTimedOut {
		t.Fatal("flight drain timed out under an unbounded context")
	}

	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := decodeSnapshot(data)
	if err != nil || skipped != 0 {
		t.Fatalf("drain snapshot unreadable: skipped=%d err=%v", skipped, err)
	}
	spilled := make(map[string][]byte, len(entries))
	for _, e := range entries {
		spilled[e.key] = e.out.ScheduleJSON
	}
	var committed int
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			if !errors.Is(errs[i], ErrDraining) {
				t.Fatalf("request %d: unexpected error %v", i, errs[i])
			}
			continue
		}
		committed++
		got, ok := spilled[outs[i].Hash]
		if !ok {
			t.Fatalf("request %d: committed entry %s missing from the drain snapshot", i, outs[i].Hash)
		}
		if !bytes.Equal(got, outs[i].ScheduleJSON) {
			t.Fatalf("request %d: spilled schedule bytes differ from the served ones", i)
		}
	}
	if committed == 0 {
		t.Fatal("the drain rejected the entire load; the guarantee was not exercised")
	}

	// Post-drain admission is closed and says so.
	if _, err := srv.Solve(context.Background(), solveSpec(t, feasibleRequest(99))); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain solve error = %v, want ErrDraining", err)
	}
	if m := srv.Metrics(); !m.Draining {
		t.Fatal("metrics do not report draining")
	}

	// A restarted handle serves every committed entry as a warm hit.
	h2 := NewHandle(Config{SnapshotPath: snap, SnapshotInterval: -1})
	replayed, skipped2, err := h2.WarmStart()
	if err != nil || skipped2 != 0 {
		t.Fatalf("warm start: replayed=%d skipped=%d err=%v", replayed, skipped2, err)
	}
	if replayed != len(entries) {
		t.Fatalf("replayed %d entries, want %d", replayed, len(entries))
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			continue
		}
		out, err := h2.Solve(context.Background(), solveSpec(t, feasibleRequest(float64(i+1))))
		if err != nil {
			t.Fatalf("warm solve %d: %v", i, err)
		}
		if !out.Cached || !bytes.Equal(out.ScheduleJSON, outs[i].ScheduleJSON) {
			t.Fatalf("warm solve %d: cached=%v, bytes identical=%v", i, out.Cached, bytes.Equal(out.ScheduleJSON, outs[i].ScheduleJSON))
		}
	}
	if m := h2.Metrics(); m.SolveCalls != 0 {
		t.Fatalf("restarted handle made %d solver calls serving replayed entries", m.SolveCalls)
	}
}

// TestReadyzLifecycle walks /readyz through starting → ready → draining,
// with /healthz staying alive throughout.
func TestReadyzLifecycle(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "cache.snap")
	srv := New(Config{SnapshotPath: snap, SnapshotInterval: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before warm start = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz before warm start = %d, want 200 (liveness is not readiness)", got)
	}
	if _, _, err := srv.WarmStart(); err != nil {
		t.Fatal(err)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after warm start = %d, want 200", got)
	}
	srv.Drain(context.Background())
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", got)
	}
	// New work is rejected with 503 and a Retry-After hint.
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/solve", feasibleRequest(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503-drain response missing Retry-After")
	}
	// So is every other endpoint's: a batch whose every problem meets the
	// drain is refused whole, not answered 200 with per-problem refusals.
	base := feasibleRequest(2)
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/batch", BatchRequest{Options: base.Options, Problems: []BatchProblem{
			{Graph: base.Graph, Platform: base.Platform},
			{Graph: feasibleRequest(3).Graph, Platform: base.Platform},
		}}},
		{"/v1/replan", replanRequest(t, 2, PlatformDelta{})},
		{"/v1/simulate", SimulateRequest{Graph: base.Graph, Platform: base.Platform, Options: base.Options}},
	} {
		resp, data := postJSON(t, ts.Client(), ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while draining = %d, want 503 (%s)", tc.path, resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s 503-drain response missing Retry-After", tc.path)
		}
	}
}

// TestFaultSiteAdmitReject covers the admission site: an armed reject
// surfaces as queue-full backpressure, counted like any rejection.
func TestFaultSiteAdmitReject(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Enable(SiteAdmitReject, faultinject.Always())
	srv := New(Config{})
	if _, err := srv.Solve(context.Background(), solveSpec(t, feasibleRequest(2))); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("error = %v, want ErrQueueFull", err)
	}
	if m := srv.Metrics(); m.Queue.Rejected == 0 {
		t.Fatal("injected rejection not counted")
	}
}

// TestFaultSiteSnapshotIO covers the persistence sites: a failed spill
// reports its error (and the drain report carries it), a failed replay
// degrades to a cold start instead of failing the boot.
func TestFaultSiteSnapshotIO(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	snap := filepath.Join(t.TempDir(), "cache.snap")
	srv := New(Config{SnapshotPath: snap, SnapshotInterval: -1})
	if _, _, err := srv.WarmStart(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Solve(context.Background(), solveSpec(t, feasibleRequest(2))); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(SiteSnapshotWrite, faultinject.Always())
	if err := srv.SnapshotNow(); err == nil {
		t.Fatal("injected snapshot write failure not surfaced")
	}
	if _, err := os.Stat(snap); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed spill left a snapshot file: %v", err)
	}
	rep := srv.Drain(context.Background())
	if rep.SnapshotErr == nil {
		t.Fatal("drain report missing the injected spill failure")
	}

	faultinject.Reset()
	faultinject.Enable(SiteSnapshotReplay, faultinject.Always())
	h2 := NewHandle(Config{SnapshotPath: snap, SnapshotInterval: -1})
	if _, _, err := h2.WarmStart(); err == nil {
		t.Fatal("injected replay failure not surfaced")
	}
	if !h2.Ready() {
		t.Fatal("a failed replay must degrade to a cold start, not block readiness")
	}
}

// ---- kill -9 e2e against a real daemon ---------------------------------

// daemonProc wraps a started streamschedd process. Its combined output is
// only read after the process has exited (os/exec pipes race otherwise).
type daemonProc struct {
	cmd  *exec.Cmd
	out  bytes.Buffer
	done bool
}

func startDaemon(t *testing.T, bin string, args ...string) *daemonProc {
	t.Helper()
	d := &daemonProc{cmd: exec.Command(bin, args...)}
	d.cmd.Stdout = &d.out
	d.cmd.Stderr = &d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.kill9() })
	return d
}

// kill9 delivers SIGKILL — no drain, no spill, the crash being simulated —
// and reaps the process.
func (d *daemonProc) kill9() {
	if d.done {
		return
	}
	d.done = true
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitDaemonReady(t *testing.T, client *http.Client, base string) {
	t.Helper()
	waitUntil(t, "daemon readiness at "+base, func() bool {
		resp, err := client.Get(base + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

func daemonMetrics(t *testing.T, client *http.Client, base string) MetricsSnapshot {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
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

// TestChaosKillMinus9WarmRestart is the headline chaos pin: a daemon
// killed with SIGKILL mid-traffic restarts from its periodic snapshot and
// serves previously-solved problems as cache hits — byte-identical
// responses, zero solver calls.
func TestChaosKillMinus9WarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon; run without -short (chaos lane)")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "streamschedd")
	if out, err := exec.Command("go", "build", "-o", bin, "streamsched/cmd/streamschedd").CombinedOutput(); err != nil {
		t.Fatalf("building daemon: %v\n%s", err, out)
	}
	snap := filepath.Join(tmp, "cache.snap")
	addr := freeAddr(t)
	base := "http://" + addr
	client := &http.Client{Timeout: 10 * time.Second}
	args := []string{"-addr", addr, "-snapshot", snap, "-snapshot-interval", "100ms"}

	d1 := startDaemon(t, bin, args...)
	waitDaemonReady(t, client, base)

	reqA, reqB := feasibleRequest(2), feasibleRequest(3)
	for _, req := range []SolveRequest{reqA, reqB} {
		if resp, data := postJSON(t, client, base+"/v1/solve", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("priming solve: %d (%s)", resp.StatusCode, data)
		}
	}
	// Record a pre-kill cache-hit response as the byte-identical baseline.
	resp, preHit := postJSON(t, client, base+"/v1/solve", reqA)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-kill cache hit: %d (%s)", resp.StatusCode, preHit)
	}
	var pre SolveResponse
	if err := json.Unmarshal(preHit, &pre); err != nil || !pre.Cached {
		t.Fatalf("pre-kill repeat solve not a cache hit: %v %s", err, preHit)
	}
	// Two completed spills after both solves guarantee the second began
	// after both entries were committed.
	w := daemonMetrics(t, client, base).SnapshotWrites
	waitUntil(t, "snapshot to cover both solves", func() bool {
		return daemonMetrics(t, client, base).SnapshotWrites >= w+2
	})

	d1.kill9()

	d2 := startDaemon(t, bin, args...)
	defer d2.kill9()
	waitDaemonReady(t, client, base)
	if m := daemonMetrics(t, client, base); m.SnapshotReplayed < 2 {
		t.Fatalf("restarted daemon replayed %d entries, want ≥ 2", m.SnapshotReplayed)
	}
	resp, postHit := postJSON(t, client, base+"/v1/solve", reqA)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart solve: %d (%s)", resp.StatusCode, postHit)
	}
	if !bytes.Equal(preHit, postHit) {
		t.Fatalf("cache-hit response changed across kill -9 + restart:\npre:  %s\npost: %s", preHit, postHit)
	}
	if m := daemonMetrics(t, client, base); m.SolveCalls != 0 {
		t.Fatalf("restarted daemon made %d solver calls for a previously-solved problem", m.SolveCalls)
	}
}

// TestChaosTraceRingBounded pins the trace-ring contract under concurrent
// load with tracing armed: the ring never exceeds its configured capacity,
// never blocks a flight (every request completes with a well-formed
// response and a trace ID), and the whole arrangement is race-clean (this
// test runs under -race in the chaos and unit lanes). Workers stay low and
// requests mix cold solves, cache hits and coalesced followers so traced
// flights overlap, detach and outlive their requesters.
func TestChaosTraceRingBounded(t *testing.T) {
	const ringCap = 8
	srv := New(Config{Workers: 2, QueueLimit: 64, Tracing: true, TraceRingSize: ringCap})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// 5 distinct problems shared across goroutines: plenty of
				// coalescing and cache hits in with the cold solves.
				resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/solve", feasibleRequest(float64(1+(g+i)%5)))
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("solve: HTTP %d (%s)", resp.StatusCode, body)
					return
				}
				if resp.Header.Get("X-Trace-Id") == "" {
					errs <- fmt.Errorf("traced response missing X-Trace-Id")
					return
				}
				if n := srv.traces.Len(); n > ringCap {
					errs <- fmt.Errorf("trace ring holds %d traces, cap %d", n, ringCap)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := srv.traces.Len(); n != ringCap {
		t.Fatalf("ring holds %d traces after %d requests, want full at %d", n, goroutines*perG, ringCap)
	}
	// Every retained trace is finished and addressable.
	for _, tr := range srv.traces.Snapshot() {
		doc := tr.Snapshot()
		if doc.ID == "" || len(doc.Spans) == 0 {
			t.Fatalf("retained trace malformed: %+v", doc)
		}
	}
}
