package main

// The serve-hit and serve-miss workloads: nproc closed-loop clients send
// pre-encoded /v1/solve and /v1/replan bodies through
// service.New(cfg).Handler().ServeHTTP in-process (httptest request and
// recorder, no sockets), each client sending its next request when its
// previous reply arrives. serve-hit cycles a fixed set that set-up has
// already put in the LRU; serve-miss cycles a pool larger than the LRU,
// so every request is a fresh solve or replan whose reply evicts an entry.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
	"streamsched/internal/service"
	"streamsched/internal/stats"
)

// serveProcs is m, the paper's platform size.
const serveProcs = 20

// granularities is the paper's sweep (Fig. 3/4).
var granularities = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}

// serveSize fixes how much a serve workload generates and replays.
type serveSize struct {
	hitSet      int // serve-hit: requests in the fixed set
	missPool    int // serve-miss: distinct requests, cycled; must exceed cacheCap
	bases       int // committed schedules the replans start from (at most)
	cacheCap    int // LRU entries (0: the service default, 1024)
	passHit     int // serve-hit: completions per pass (the whole set)
	passMiss    int // serve-miss: completions per pass (whole mixes)
	replayHit   int // serve-hit: requests the traced replay covers
	replayMiss  int // serve-miss: requests the traced replay covers
	checkStride int // serve-miss: every checkStride-th request is re-derived
}

func serveSizes(tiny bool) serveSize {
	if tiny {
		return serveSize{hitSet: 10, missPool: 24, bases: 2, cacheCap: 16, passHit: 10, passMiss: 6,
			replayHit: 10, replayMiss: 6, checkStride: 7}
	}
	// checkStride is prime, so the sample covers every slot of the
	// six-request mix.
	return serveSize{hitSet: 160, missPool: 1200, bases: 20, passHit: 160, passMiss: 60,
		replayHit: 320, replayMiss: 60, checkStride: 61}
}

// capacity is the LRU size the server runs with.
func (s serveSize) capacity() int {
	if s.cacheCap > 0 {
		return s.cacheCap
	}
	return 1024
}

// input is one pre-generated request: the body the program receives, and
// the in-memory problem the checks and the traced replay re-derive from.
type input struct {
	replan bool
	path   string
	body   []byte
	class  uint64 // with index, regenerates the problem (randgraph.cell_ms)
	index  int
	g      *dag.Graph
	p      *platform.Platform
	opts   service.Options
	base   *schedule.Schedule // replan: the committed schedule
	delta  core.Delta         // replan: the platform change
}

// Input classes: each draws its problems from its own low-discrepancy
// sequence.
const (
	classEps1 uint64 = iota + 1
	classEps3
	classBase
)

// drawProblem generates problem j of a class: an m=20
// platform.RandomHeterogeneous platform and a randgraph.Stream graph.
// Task count v and granularity follow a seeded two-dimensional R2
// low-discrepancy sequence, so every class and every prefix of it covers
// v∈[50,150] and the paper's granularities evenly whatever the seed: the
// seed changes which graphs and platforms are drawn, not the mix of sizes,
// which keeps the workload's cost steady across seeds.
func drawProblem(seed, class uint64, j int) (*dag.Graph, *platform.Platform) {
	const a1, a2 = 0.7548776662466927, 0.5698402909980532 // R2 sequence
	off := rng.New(seed*7919 + class)
	u1 := frac(off.Float64() + float64(j)*a1)
	u2 := frac(off.Float64() + float64(j)*a2)
	r := rng.New(seed*1_000_003 + class*65_537 + uint64(j))
	p := platform.RandomHeterogeneous(r, serveProcs, 0.5, 1.0, 0.5, 1.0, 100)
	cfg := randgraph.DefaultStreamConfig()
	v := 50 + int(101*u1)
	cfg.MinTasks, cfg.MaxTasks = v, v
	cfg.Granularity = granularities[int(float64(len(granularities))*u2)]
	return randgraph.Stream(r, cfg, p), p
}

func frac(x float64) float64 { return x - math.Floor(x) }

// base is a schedule committed in set-up; replans apply deltas to it.
type base struct {
	index int
	g     *dag.Graph
	p     *platform.Platform
	s     *schedule.Schedule
	json  []byte
}

var replanOpts = service.Options{Algorithm: "rltf", Eps: 1, Period: 20}

// commitBases solves n feasible base problems with R-LTF at ε=1, Δ=20.
func commitBases(ctx context.Context, seed uint64, n int) ([]base, error) {
	sv, err := replanOpts.Solver()
	if err != nil {
		return nil, err
	}
	var bases []base
	for j := 0; len(bases) < n; j++ {
		if j >= 10*n {
			return nil, fmt.Errorf("only %d of %d base problems are feasible", len(bases), n)
		}
		g, p := drawProblem(seed, classBase, j)
		s, err := sv.Solve(ctx, g, p)
		if errors.Is(err, core.ErrInfeasible) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("committing base %d: %w", j, err)
		}
		raw, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		bases = append(bases, base{index: j, g: g, p: p, s: s, json: raw})
	}
	return bases, nil
}

// deltaFor is delta k of base b: processor perm[k/2] is lost (even k) or
// runs at half speed (odd k).
func deltaFor(seed uint64, b base, k int) service.PlatformDelta {
	perm := rng.New(seed*31 + uint64(b.index)).Perm(serveProcs)
	u := perm[(k/2)%serveProcs]
	if k%2 == 0 {
		return service.PlatformDelta{Lost: []int{u}}
	}
	return service.PlatformDelta{Speed: []service.ProcSpeed{{Proc: u, Speed: b.p.Speed(platform.ProcID(u)) / 2}}}
}

func solveInput(seed, class uint64, j int, opts service.Options) (input, error) {
	g, p := drawProblem(seed, class, j)
	body, err := json.Marshal(service.SolveRequest{
		SchemaVersion: service.Version,
		Graph:         service.GraphDTO(g),
		Platform:      service.PlatformDTO(p),
		Options:       opts,
	})
	return input{path: "/v1/solve", body: body, class: class, index: j, g: g, p: p, opts: opts}, err
}

func replanInput(seed uint64, b base, k int) (input, error) {
	wd := deltaFor(seed, b, k)
	body, err := json.Marshal(service.ReplanRequest{
		SchemaVersion: service.Version,
		Graph:         service.GraphDTO(b.g),
		Platform:      service.PlatformDTO(b.p),
		Options:       replanOpts,
		Schedule:      b.json,
		Delta:         wd,
	})
	return input{replan: true, path: "/v1/replan", body: body, class: classBase, index: b.index,
		g: b.g, p: b.p, opts: replanOpts, base: b.s, delta: wd.Build()}, err
}

// hitInputs is serve-hit's fixed set: paper-sized R-LTF solves at ε=1,
// Δ=20, with one replan of a committed schedule for every four solves.
func hitInputs(ctx context.Context, seed uint64, size serveSize) ([]input, error) {
	nReplans := size.hitSet / 5
	bases, err := commitBases(ctx, seed, min(nReplans, size.bases))
	if err != nil {
		return nil, err
	}
	var ins []input
	solves, replans := 0, 0
	for i := 0; i < size.hitSet; i++ {
		var in input
		if i%5 == 4 {
			in, err = replanInput(seed, bases[replans%len(bases)], replans/len(bases))
			replans++
		} else {
			in, err = solveInput(seed, classEps1, solves, service.Options{Algorithm: "rltf", Eps: 1, Period: 20})
			solves++
		}
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}

// missInputs is serve-miss's pool, in a repeating mix of six: two replans
// (one lost processor or one halved speed on a committed schedule), three
// ε=1 Δ=20 solves (R-LTF, LTF, Portfolio) and one ε=3 Δ=40 solve whose
// algorithm rotates through the three. Replans and ε=1 solves cost about
// the same, so the median falls in their dense middle and p95 among the
// ε=3 solves (NOTES.md).
func missInputs(ctx context.Context, seed uint64, size serveSize) ([]input, error) {
	nReplans := size.missPool / 3
	nb := min(size.bases, nReplans)
	if 2*serveProcs*nb < nReplans {
		return nil, fmt.Errorf("%d bases cannot give %d distinct replans", nb, nReplans)
	}
	bases, err := commitBases(ctx, seed, nb)
	if err != nil {
		return nil, err
	}
	algos := []string{"rltf", "ltf", "portfolio"}
	var ins []input
	eps1, eps3, replans := 0, 0, 0
	for i := 0; i < size.missPool; i++ {
		var in input
		switch slot := i % 6; slot {
		case 0, 2:
			in, err = replanInput(seed, bases[replans%nb], replans/nb)
			replans++
		case 5:
			in, err = solveInput(seed, classEps3, eps3, service.Options{Algorithm: algos[(i/6)%3], Eps: 3, Period: 40})
			eps3++
		default:
			in, err = solveInput(seed, classEps1, eps1, service.Options{Algorithm: algos[eps1%3], Eps: 1, Period: 20})
			eps1++
		}
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}

// post sends one body through the handler, as a client would, and returns
// the reply and how long ServeHTTP took.
func post(h http.Handler, in *input) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, in.path, bytes.NewReader(in.body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec, time.Since(t0)
}

// primeFillers fills the LRU with small distinct problems, so that every
// fill of the timed phase evicts an entry.
func primeFillers(ctx context.Context, h *service.Handle, n int) error {
	sv, err := core.NewSolver(core.WithPeriod(100))
	if err != nil {
		return err
	}
	p := platform.Homogeneous(2, 1, 10)
	for i := 0; i < n; i++ {
		g := dag.New("filler-" + strconv.Itoa(i))
		a := g.AddTask("a", 1)
		b := g.AddTask("b", 2)
		g.MustAddEdge(a, b, 1)
		out, err := h.Solve(ctx, service.Spec{Graph: g, Platform: p, Solver: sv})
		if err != nil {
			return fmt.Errorf("filler %d: %w", i, err)
		}
		if out.Schedule == nil {
			return fmt.Errorf("filler %d: no schedule", i)
		}
	}
	return nil
}

// reference is serve-hit's expected reply to one input of the set.
type reference struct {
	code   int
	body   []byte
	stages int
}

// serveState is one set-up's result.
type serveState struct {
	inputs []input
	srv    *service.Server
	h      http.Handler
	refs   []reference // serve-hit
}

func setupServe(ctx context.Context, o options, size serveSize) (*serveState, error) {
	var (
		ins []input
		err error
	)
	if o.workload == "serve-hit" {
		ins, err = hitInputs(ctx, o.seed, size)
	} else {
		ins, err = missInputs(ctx, o.seed, size)
	}
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{CacheEntries: size.cacheCap})
	st := &serveState{inputs: ins, srv: srv, h: srv.Handler()}
	if o.workload == "serve-miss" {
		return st, primeFillers(ctx, srv.Handle, size.capacity())
	}
	// serve-hit: send the set once to fill the cache, then once more to
	// capture the cached replies every timed reply must equal.
	for i := range ins {
		if rec, _ := post(st.h, &ins[i]); rec.Code != http.StatusOK && rec.Code != http.StatusConflict {
			return nil, fmt.Errorf("priming request %d: HTTP %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
	before := srv.Metrics().Cache.Hits
	for i := range ins {
		rec, _ := post(st.h, &ins[i])
		ref := reference{code: rec.Code, body: rec.Body.Bytes()}
		if rec.Code == http.StatusOK {
			if ref.stages, err = replyStages(ref.body); err != nil {
				return nil, fmt.Errorf("reference reply %d: %w", i, err)
			}
		}
		st.refs = append(st.refs, ref)
	}
	if hits := srv.Metrics().Cache.Hits - before; hits != int64(len(ins)) {
		return nil, fmt.Errorf("only %d of %d reference requests hit the cache", hits, len(ins))
	}
	return st, nil
}

// replyStages reads the stage count from a reply's summary, the last
// "stages" key of the body.
func replyStages(body []byte) (int, error) {
	key := []byte(`"stages":`)
	i := bytes.LastIndex(body, key)
	if i < 0 {
		return 0, errors.New("reply has no stage count")
	}
	rest := body[i+len(key):]
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	return strconv.Atoi(string(rest[:n]))
}

// opSample is one timed request.
type opSample struct {
	idx       int
	latMs     float64
	ok        bool
	feasible  bool // a schedule (200) rather than a typed infeasibility (409)
	stages    int
	reqBytes  int
	respBytes int
	reply     []byte // serve-miss: kept for the re-derivation sample
	code      int
}

// closedLoop runs nproc clients for dur and returns every request's sample.
func closedLoop(st *serveState, size serveSize, dur time.Duration, clock *passClock) []opSample {
	clients := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	logs := make([][]opSample, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]opSample, 0, 1<<14)
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				in := &st.inputs[i%len(st.inputs)]
				rec, lat := post(st.h, in)
				clock.add(1)
				s := opSample{idx: i, latMs: msOf(lat),
					reqBytes: len(in.body), respBytes: rec.Body.Len(), code: rec.Code}
				checkReply(st, size, &s, rec.Body.Bytes())
				out = append(out, s)
			}
			logs[c] = out
		}(c)
	}
	wg.Wait()
	var all []opSample
	for _, l := range logs {
		all = append(all, l...)
	}
	return all
}

// checkReply is the clients' per-reply check. serve-hit: the reply must
// equal the cached reference byte for byte. serve-miss: a schedule (200)
// or a typed infeasibility (409); every checkStride-th reply is kept for
// re-derivation after the timed phase.
func checkReply(st *serveState, size serveSize, s *opSample, body []byte) {
	if st.refs != nil {
		ref := &st.refs[s.idx%len(st.refs)]
		s.ok = s.code == ref.code && bytes.Equal(body, ref.body)
		s.feasible, s.stages = ref.code == http.StatusOK, ref.stages
		return
	}
	switch s.code {
	case http.StatusOK:
		n, err := replyStages(body)
		s.ok, s.feasible, s.stages = err == nil, true, n
	case http.StatusConflict:
		s.ok = true
	}
	if s.idx%size.checkStride == 0 {
		s.reply = body
	}
}

// verifyMiss re-derives one kept serve-miss reply by calling the solver
// directly: the reply must carry the same schedule bytes (or the same
// typed infeasibility), and the schedule must pass Schedule.Validate on
// the platform it was computed for (post-delta for a replan).
func verifyMiss(ctx context.Context, in *input, code int, body []byte) error {
	sv, err := in.opts.Solver()
	if err != nil {
		return err
	}
	var (
		want  *schedule.Schedule
		onP   = in.p
		solve error
	)
	if in.replan {
		var res *core.ReplanResult
		res, solve = sv.Replan(ctx, in.base, in.delta)
		if solve == nil {
			want = res.Schedule
		}
		if onP, _, err = in.delta.Apply(in.p); err != nil {
			return err
		}
	} else {
		want, solve = sv.Solve(ctx, in.g, in.p)
	}
	if errors.Is(solve, core.ErrInfeasible) {
		if code != http.StatusConflict {
			return fmt.Errorf("library says infeasible, service answered HTTP %d", code)
		}
		return nil
	}
	if solve != nil {
		return solve
	}
	if code != http.StatusOK {
		return fmt.Errorf("library found a schedule, service answered HTTP %d", code)
	}
	var reply struct {
		Schedule json.RawMessage `json:"schedule"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return err
	}
	raw, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, reply.Schedule) {
		return errors.New("service schedule differs from the library's")
	}
	got, err := schedule.LoadJSON(reply.Schedule, in.g, onP)
	if err != nil {
		return err
	}
	return got.Validate()
}

func runServe(ctx context.Context, o options) (*report, error) {
	size := serveSizes(o.tiny)
	var (
		st     *serveState
		setups []float64
	)
	for k := 0; k < setupRepeats(o); k++ {
		st = nil // collect the previous set-up before timing the next
		runtime.GC()
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		var err error
		if st, err = setupServe(ctx, o, size); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	m0 := st.srv.Metrics()
	ph := beginPhase()
	clock := newPassClock(size.passMiss)
	if o.workload == "serve-hit" {
		clock = newPassClock(size.passHit)
	}
	samples := closedLoop(st, size, time.Duration(o.seconds*float64(time.Second)), clock)
	cost := ph.end()
	passes := clock.stats()
	m1 := st.srv.Metrics()

	rep := &report{e2e: map[string]float64{}, layers: map[string]float64{}}
	for i := range samples {
		s := &samples[i]
		if s.reply == nil {
			continue
		}
		in := &st.inputs[s.idx%len(st.inputs)]
		if err := verifyMiss(ctx, in, s.code, s.reply); err != nil {
			rep.fail("request %d (%s): %v", s.idx, in.path, err)
			s.ok = false
		}
		s.reply = nil
	}

	n := float64(len(samples))
	var lat []float64
	var feasible, infeasible, stages, reqBytes, respBytes float64
	for _, s := range samples {
		rep.attempted++
		reqBytes += float64(s.reqBytes)
		respBytes += float64(s.respBytes)
		if !s.ok {
			rep.failed++
			lat = append(lat, math.Inf(1)) // a failed op misses every limit
			continue
		}
		lat = append(lat, s.latMs)
		if s.feasible {
			feasible++
			stages += float64(s.stages)
		} else {
			infeasible++
		}
	}
	if passes.passes == 0 {
		return nil, fmt.Errorf("only %d requests completed, fewer than one pass", rep.attempted)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rep.latencySamples, rep.setups = len(lat), setups
	rep.e2e = map[string]float64{
		"setup_s":        stats.Median(setups),
		"latency_p50_ms": stats.Quantile(lat, 0.5),
		"latency_p95_ms": stats.Quantile(lat, 0.95),
		"throughput_rps": passes.opsPerSec,
		"campaign_s":     passes.seconds,
		"cpu_ms_per_op":  passes.cpuMsPerOp,
		"peak_rss_mb":    rss,
		"stages_mean":    ratio(stages, feasible),
		"feasible_share": ratio(feasible, feasible+infeasible),
	}
	if !o.trace {
		return rep, nil
	}

	lookups := (m1.Cache.Hits - m0.Cache.Hits) + (m1.Cache.Misses - m0.Cache.Misses)
	rep.layers = map[string]float64{
		"service.request_kb":      reqBytes / n / 1024,
		"service.response_kb":     respBytes / n / 1024,
		"service.cache_hit_ratio": ratio(float64(m1.Cache.Hits-m0.Cache.Hits), float64(lookups)),
		"service.solves_per_req":  float64(m1.SolveCalls-m0.SolveCalls) / n,
		"runtime.alloc_kb_per_op": cost.allocBytes / n / 1024,
		"runtime.allocs_per_op":   cost.allocs / n,
		"runtime.gc_cpu_share":    cost.gcCPUShare,
	}
	tracedCPU, err := replayServe(ctx, o, size, st, rep)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	rep.layers["trace.overhead_share"] = tracedCPU/(cost.cpu/n) - 1
	return rep, nil
}

// replayTally sums the traced replay's per-layer times and counts.
type replayTally struct {
	solverCounters
	ms                      map[string]float64
	requests, solves        float64
	replans, cold           float64
	replayed, preserved, rp float64
}

// replayServe replays a deterministic prefix of the inputs one layer at a
// time, timing each public call as one span; an outer call's self time is
// its duration minus the inner calls timed separately on the same input.
// serve-hit replays against the primed timed-phase server, so every call
// hits as in the timed phase; serve-miss replays against two fresh
// servers with full LRUs (one for the whole ServeHTTP call, one for the
// Handle calls), so every call misses as in the timed phase. It returns
// the replay's CPU seconds per request.
func replayServe(ctx context.Context, o options, size serveSize, st *serveState, rep *report) (float64, error) {
	full, layered := st.srv, st.srv
	count := size.replayHit
	if o.workload == "serve-miss" {
		count = size.replayMiss
		full = service.New(service.Config{CacheEntries: size.cacheCap})
		layered = service.New(service.Config{CacheEntries: size.cacheCap})
		for _, s := range []*service.Server{full, layered} {
			if err := primeFillers(ctx, s.Handle, size.capacity()); err != nil {
				return 0, err
			}
		}
	}
	obs.Enable()
	defer obs.Disable()

	log := newSpanLog()
	t := &replayTally{ms: map[string]float64{}}
	fullH := full.Handler()
	ph := beginPhase()
	for id := 0; id < count; id++ {
		in := &st.inputs[id%len(st.inputs)]
		if err := replayOne(ctx, o, log, t, fullH, layered.Handle, in, id); err != nil {
			return 0, fmt.Errorf("request %d (%s): %w", id, in.path, err)
		}
	}
	cost := ph.end()

	rep.spans = log
	req := t.requests
	for _, name := range []string{"service.request", "service.decode", "service.build", "service.hash",
		"service.render", "schedule.load", "schedule.marshal", "core.solve", "repair.replan", "randgraph.cell"} {
		rep.layers[name+"_ms"] = t.ms[name] / req
	}
	handleSelf := t.ms["service.handle"] - t.ms["service.hash"] - t.ms["core.solve"] - t.ms["repair.replan"] - t.ms["schedule.marshal"]
	rep.layers["service.handle_ms"] = handleSelf / req
	rep.layers["service.glue_ms"] = (t.ms["service.request"] - t.ms["service.decode"] - t.ms["service.build"] -
		t.ms["schedule.load"] - t.ms["service.handle"] - t.ms["service.render"]) / req
	t.report(rep.layers, t.solves, t.ms["core.solve"])
	tasks := t.replayed + t.preserved + t.rp
	rep.layers["repair.replayed_share"] = ratio(t.replayed, tasks)
	rep.layers["repair.preserved_share"] = ratio(t.preserved, tasks)
	rep.layers["repair.repaired_share"] = ratio(t.rp, tasks)
	rep.layers["repair.cold_share"] = ratio(t.cold, t.replans)
	return cost.cpu / req, nil
}

// replayOne replays input in as request id: the whole ServeHTTP call,
// then decode → build → (load) → Handle.Solve/Replan, with the hash and
// the solver or repair and the marshal it ran inside → render, and the
// input generation behind the request.
func replayOne(ctx context.Context, o options, log *spanLog, t *replayTally, fullH http.Handler, h *service.Handle, in *input, id int) error {
	const lane = "replay"
	root := log.begin("request", lane, id, -1)
	defer log.end(root)
	timed := func(name string, parent int, fn func()) {
		t.ms[name] += log.timed(name, lane, id, parent, fn)
	}
	t.requests++

	var rec *httptest.ResponseRecorder
	timed("service.request", root, func() { rec, _ = post(fullH, in) })
	if rec.Code != http.StatusOK && rec.Code != http.StatusConflict {
		return fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}

	var (
		solveReq  service.SolveRequest
		replanReq service.ReplanRequest
		err       error
	)
	timed("service.decode", root, func() {
		dec := json.NewDecoder(bytes.NewReader(in.body))
		if in.replan {
			err = dec.Decode(&replanReq)
		} else {
			err = dec.Decode(&solveReq)
		}
	})
	if err != nil {
		return err
	}

	var (
		g     *dag.Graph
		p     *platform.Platform
		sv    *core.Solver
		delta core.Delta
	)
	timed("service.build", root, func() {
		wg, wp, wo := solveReq.Graph, solveReq.Platform, solveReq.Options
		if in.replan {
			wg, wp, wo = replanReq.Graph, replanReq.Platform, replanReq.Options
		}
		if g, err = wg.Build(); err != nil {
			return
		}
		if p, err = wp.Build(); err != nil {
			return
		}
		if sv, err = wo.Solver(); err != nil {
			return
		}
		if in.replan {
			delta = replanReq.Delta.Build()
			_, _, err = delta.Apply(p)
		}
	})
	if err != nil {
		return err
	}

	var old *schedule.Schedule
	if in.replan {
		timed("schedule.load", root, func() { old, err = schedule.LoadJSON(replanReq.Schedule, g, p) })
		if err != nil {
			return err
		}
	}
	// Handle.Solve and Handle.Replan hash the problem first; the hash is
	// timed again right after, on the same warm input, and subtracted.
	spec := service.ReplanSpec{Old: old, Solver: sv, Delta: delta}
	var out service.Outcome
	hs := log.begin("service.handle", lane, id, root)
	if in.replan {
		out, err = h.Replan(ctx, spec)
	} else {
		out, err = h.Solve(ctx, service.Spec{Graph: g, Platform: p, Solver: sv})
	}
	t.ms["service.handle"] += log.end(hs)
	if err != nil {
		return err
	}
	timed("service.hash", hs, func() {
		if in.replan {
			_, err = service.ReplanHash(spec)
		} else {
			_ = service.ProblemHash(g, p, sv)
		}
	})
	if err != nil {
		return err
	}
	if o.workload == "serve-hit" && !out.Cached {
		return errors.New("replayed serve-hit request missed the cache")
	}
	if o.workload == "serve-miss" && out.Cached {
		return errors.New("replayed serve-miss request hit the cache")
	}
	if !out.Cached {
		if err := replayInner(ctx, log, t, in, id, hs, g, p, sv, old, delta, out); err != nil {
			return err
		}
	}

	var buf bytes.Buffer
	timed("service.render", root, func() { err = json.NewEncoder(&buf).Encode(replyDTO(in.replan, out)) })
	if err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), rec.Body.Bytes()) {
		return errors.New("replayed render differs from the service's reply")
	}

	timed("randgraph.cell", root, func() { g, p = drawProblem(o.seed, in.class, in.index) })
	if service.ProblemHash(g, p, sv) != service.ProblemHash(in.g, in.p, sv) {
		return errors.New("regenerated input differs from the set-up's")
	}
	return nil
}

// replayInner times the solver or repair call and the schedule marshal a
// missed Handle call ran inside, on the same input. The solve carries an
// obs trace, so the solver's own ltf/rltf spans report their counters.
func replayInner(ctx context.Context, log *spanLog, t *replayTally, in *input, id, parent int,
	g *dag.Graph, p *platform.Platform, sv *core.Solver, old *schedule.Schedule, delta core.Delta, out service.Outcome) error {
	const lane = "replay"
	var (
		sched *schedule.Schedule
		err   error
	)
	if in.replan {
		var res *core.ReplanResult
		t.ms["repair.replan"] += log.timed("repair.replan", lane, id, parent, func() { res, err = sv.Replan(ctx, old, delta) })
		t.replans++
		if err == nil {
			sched = res.Schedule
			t.replayed += float64(res.Stats.Replayed)
			t.preserved += float64(res.Stats.Preserved)
			t.rp += float64(res.Stats.Repaired)
			if res.Stats.ColdSolve {
				t.cold++
			}
		}
	} else {
		tr := obs.NewTrace("core.solve")
		t.ms["core.solve"] += log.timed("core.solve", lane, id, parent, func() { sched, err = sv.Solve(obs.ContextWith(ctx, tr.Root()), g, p) })
		tr.Finish(0)
		t.solves++
		t.add(tr)
	}
	if errors.Is(err, core.ErrInfeasible) {
		if out.Infeasible == nil {
			return errors.New("library says infeasible, service returned a schedule")
		}
		return nil
	}
	if err != nil {
		return err
	}
	var raw []byte
	t.ms["schedule.marshal"] += log.timed("schedule.marshal", lane, id, parent, func() { raw, err = json.Marshal(sched) })
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, out.ScheduleJSON) {
		return errors.New("library schedule differs from the service's")
	}
	return nil
}

// solverCounters sums the mapper.PhaseCounters, and the time, that the
// solver's own ltf/rltf spans carry.
type solverCounters struct {
	trials, places, rollbacks, fallbacks float64
	spanMs                               float64
}

func (c *solverCounters) add(tr *obs.Trace) {
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name != "ltf" && sp.Name != "rltf" {
			continue
		}
		c.spanMs += sp.DurUs / 1000
		c.trials += argNum(sp.Args["trials"])
		c.places += argNum(sp.Args["placements"])
		c.rollbacks += argNum(sp.Args["rollbacks"])
		c.fallbacks += argNum(sp.Args["fallbacks"])
	}
}

// report sets the mapper metrics for solves that took solveMs in all.
func (c *solverCounters) report(layers map[string]float64, solves, solveMs float64) {
	layers["mapper.trials_per_solve"] = ratio(c.trials, solves)
	layers["mapper.placements_per_solve"] = ratio(c.places, solves)
	layers["mapper.rollbacks_per_solve"] = ratio(c.rollbacks, solves)
	layers["mapper.fallbacks_per_solve"] = ratio(c.fallbacks, solves)
	layers["mapper.placement_yield"] = ratio(c.places, c.trials)
	layers["mapper.us_per_trial"] = ratio(1000*solveMs, c.trials)
}

func argNum(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case int:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// replyDTO is the reply envelope the server renders around an outcome.
func replyDTO(replan bool, out service.Outcome) any {
	if !replan {
		resp := service.SolveResponse{SchemaVersion: service.Version, Hash: out.Hash, Cached: out.Cached, Coalesced: out.Coalesced}
		if out.Infeasible != nil {
			resp.Infeasible = out.Infeasible
		} else {
			resp.Schedule, resp.Summary = out.ScheduleJSON, out.Summary
		}
		return resp
	}
	resp := service.ReplanResponse{SchemaVersion: service.Version, Hash: out.Hash, Cached: out.Cached, Coalesced: out.Coalesced}
	if out.Infeasible != nil {
		resp.Infeasible = out.Infeasible
		return resp
	}
	resp.Schedule, resp.Summary = out.ScheduleJSON, out.Summary
	if s := out.Replan; s != nil {
		resp.Replan = &service.ReplanStats{Replayed: s.Replayed, Preserved: s.Preserved, Repaired: s.Repaired, ColdSolve: s.ColdSolve}
	}
	return resp
}
