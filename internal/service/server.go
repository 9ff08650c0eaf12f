package service

// The HTTP adapter: routing, wire decoding and response rendering over the
// in-process Handle (handle.go), which owns the whole pipeline — hashing,
// cache, coalescing, admission, metrics. Nothing here computes. Every POST
// /v1 route takes one path, serveAPI: decode the body and build the
// in-memory request (a failure is a 4xx before any work is admitted), run
// it on the Handle under the request's deadline, stamp the trace, and
// render the Outcome — or the error — in the one reply envelope,
// SolveResponse. The four handlers supply only what they build and what
// they run.
//
// Backpressure policy. Admission counts work units — individual solves
// that must actually compute (a batch's problems are each their own
// unit, so one batch cannot exceed the Workers bound by fanning out),
// replans, and simulate sweeps. At most Workers units execute concurrently
// and at most QueueLimit more may wait; a unit beyond that bound is
// rejected immediately with 429 and a Retry-After hint — the client, not
// the server, owns the retry budget. Cache hits and coalesced followers
// bypass admission entirely: they consume no solver capacity, so
// rejecting them would only waste work already done. A batch whose every
// problem meets the same refusal (queue full, or draining) is answered as
// one refused request. Per-request
// deadlines (TimeoutMs, clamped to MaxTimeout, default
// Config.DefaultTimeout) bound the requester's wait including queueing;
// an expired deadline surfaces as 504.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"streamsched/internal/core"
	"streamsched/internal/obs"
	"streamsched/internal/schedule"
)

// Config parameterizes a Handle (and therefore a Server). The zero value
// is usable: every field falls back to the documented default.
type Config struct {
	// Workers bounds the concurrently executing work units (≤0 → GOMAXPROCS).
	Workers int
	// QueueLimit bounds the admitted-but-waiting work units (0 → 4×Workers;
	// <0 → none: beyond Workers executing units, work is rejected at once).
	QueueLimit int
	// CacheEntries bounds the LRU result cache (≤0 → 1024).
	CacheEntries int
	// DefaultTimeout is the per-request deadline when the request does not
	// carry TimeoutMs (≤0 → 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-supplied TimeoutMs — without a ceiling a
	// client could pin worker slots indefinitely — and budgets the
	// server-side computation of each flight (≤0 → 5m, raised to
	// DefaultTimeout if configured smaller).
	MaxTimeout time.Duration
	// MaxBodyBytes caps request bodies (≤0 → 16 MiB).
	MaxBodyBytes int64
	// RetryAfter is the hint attached to 429 responses (≤0 → 1s).
	RetryAfter time.Duration
	// SnapshotPath enables persistent cache spill + warm start (DESIGN.md
	// §11): the LRU is written here on drain and every SnapshotInterval,
	// and replayed by WarmStart. Empty disables persistence.
	SnapshotPath string
	// SnapshotInterval is the background spill period (0 → 30s when
	// SnapshotPath is set; <0 → periodic spill disabled, drain still spills).
	SnapshotInterval time.Duration
	// Logf receives operational log lines (background snapshot failures);
	// nil discards them.
	Logf func(format string, args ...any)
	// Tracing enables per-request tracing (internal/obs, DESIGN.md §12):
	// every HTTP request gets an X-Trace-Id and a span tree, recent API
	// traces are retained for GET /debug/traces, per-stage latency rings
	// fill, and ?debug=timing adds a Server-Timing breakdown. Disabled,
	// requests pay one atomic load per instrumentation site and nothing
	// else.
	Tracing bool
	// TraceRingSize bounds the /debug/traces ring (≤0 → 128).
	TraceRingSize int
	// RequestLog, if set, receives one record per traced HTTP request
	// after its response is written (the daemon renders it as one
	// structured JSON log line). Requires Tracing; called synchronously,
	// so keep it cheap.
	RequestLog func(RequestLogEntry)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueLimit < 0 {
		c.QueueLimit = 0
	} else if c.QueueLimit == 0 {
		c.QueueLimit = 4 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxTimeout < c.DefaultTimeout {
		c.MaxTimeout = c.DefaultTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SnapshotPath != "" && c.SnapshotInterval == 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the HTTP adapter over an in-process Handle. Build with New,
// mount Handler() on an http.Server. The embedded Handle is exported:
// hybrid embedders can serve HTTP and call the in-process API against the
// same cache and admission bounds.
type Server struct {
	*Handle
}

// New builds a Server (and its Handle) from cfg.
func New(cfg Config) *Server {
	return &Server{Handle: NewHandle(cfg)}
}

// Handler returns the service's HTTP routing table, wrapped in the
// last-resort panic recovery middleware: a panic that escapes a handler
// goroutine (as opposed to a detached flight, which the job path's
// recoverFault isolates) becomes a 500 with the stable "internal-panic"
// token instead of net/http's connection reset.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/replan", s.handleReplan)
	mux.HandleFunc("/v1/simulate", s.handleSimulate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	// Tracing wraps OUTSIDE recovery so a panicking handler still gets its
	// trace finished (with the recovered 500 status) and logged.
	return s.traceMiddleware(s.recoverMiddleware(mux))
}

// recoverMiddleware is the handler-goroutine panic boundary. The 500 is
// best-effort: if the handler already wrote a header the rendered body is
// garbage appended to a half response, but the process survives — which is
// the point.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.m.panics.Add(1)
				s.writeError(w, http.StatusInternalServerError, fmt.Errorf("%w: %v", ErrInternalPanic, rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// requestContext applies the per-request deadline, clamped to MaxTimeout.
// The clamp compares in milliseconds before converting — multiplying an
// absurd TimeoutMs into a time.Duration first could wrap to an arbitrary
// small value.
func (s *Server) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		if int64(timeoutMs) > int64(s.cfg.MaxTimeout/time.Millisecond) {
			d = s.cfg.MaxTimeout
		} else {
			d = time.Duration(timeoutMs) * time.Millisecond
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// ---- HTTP plumbing ----------------------------------------------------

// writeJSON renders body compactly, with the trailing newline: byte for
// byte what json.Encoder writes. The schedules, already-rendered schedule
// JSON in the order body holds schedulePlaceholder for them, are written
// verbatim in the placeholders' places. They came from MarshalJSON, so they
// are compact and escaped, and encoding/json would only re-scan them.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any, schedules ...[]byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	defer s.m.countResponse(status)
	data, err := json.Marshal(body)
	if err != nil {
		return // as json.Encoder, write nothing
	}
	// Write errors below mean the client is gone.
	for _, raw := range schedules {
		at := bytes.Index(data, scheduleSlot) + len(scheduleSlot) - len(schedulePlaceholder)
		w.Write(data[:at])
		w.Write(raw)
		data = data[at+len(schedulePlaceholder):]
	}
	w.Write(data)
	w.Write(newline)
}

var newline = []byte{'\n'}

// schedulePlaceholder stands in for a reply's schedule while writeJSON
// encodes the envelope around it, and scheduleSlot is how it renders.
// writeJSON finds each slot by its bytes: no JSON string can contain them,
// since a quote inside one is always escaped, and no key in a reply but
// SolveResponse's own is named "schedule".
var (
	schedulePlaceholder = json.RawMessage("0")
	scheduleSlot        = []byte(`"schedule":0`)
)

// detachSchedule swaps resp's schedule for schedulePlaceholder and appends
// its bytes to schedules, for writeJSON to write verbatim.
func detachSchedule(resp *SolveResponse, schedules [][]byte) [][]byte {
	if len(resp.Schedule) == 0 {
		return schedules
	}
	schedules = append(schedules, resp.Schedule)
	resp.Schedule = schedulePlaceholder
	return schedules
}

// errorStatus maps a pipeline error to its HTTP status.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrRepairBudget):
		// The caller disabled the cold fallback and the repair budget was
		// exceeded: no result under the requested policy — a conflict with
		// the request's constraints, not a server fault.
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log counters only.
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// statusClientClosedRequest is nginx's conventional code for "client
// cancelled"; no standard constant exists.
const statusClientClosedRequest = 499

// writeError renders the error envelope every endpoint shares, a
// SolveResponse with only Error set: {"schemaVersion":1,"error":…}. 429
// (queue full) and 503 (draining) both mean "come back later"; Retry-After
// carries the hint either way.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.cfg.RetryAfter)))
	}
	s.writeJSON(w, status, SolveResponse{SchemaVersion: Version, Error: err.Error()})
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// decodeRequest parses the body into req, enforcing method, size and the
// schema version, then runs build. On failure it reports the status to
// answer with: a body that decodes but does not build is a 400.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, req request, build func() error) (int, error) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return http.StatusMethodNotAllowed, fmt.Errorf("service: %s requires POST", r.URL.Path)
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("service: body exceeds %d bytes", tooBig.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("service: invalid JSON: %w", err)
	}
	version, _ := req.header()
	if err := checkSchemaVersion(version); err != nil {
		return http.StatusBadRequest, err
	}
	return http.StatusBadRequest, build()
}

// buildProblem decodes one (graph, platform, options) triple.
func buildProblem(g Graph, p Platform, o Options) (Spec, error) {
	dg, err := g.Build()
	if err != nil {
		return Spec{}, err
	}
	pp, err := p.Build()
	if err != nil {
		return Spec{}, err
	}
	sv, err := o.Solver()
	if err != nil {
		return Spec{}, err
	}
	return Spec{Graph: dg, Platform: pp, Solver: sv}, nil
}

// ---- The /v1 path -----------------------------------------------------

// reply is a run's result for serveAPI to render: the status and the
// envelope with its trace outcome label — or, for /v1/batch, the batch body
// in the envelope's place.
type reply struct {
	status int
	resp   SolveResponse
	label  string
	batch  *BatchResponse
}

// serveAPI is the one path every POST /v1 route takes. It counts the
// request and observes its latency; under a "decode" span it decodes req
// (method, size, schema version) and runs build, whose error is a 400; it
// runs run under the request's deadline and stamps the trace root with the
// outcome; and under a "render" span it renders the reply or the error.
// The handlers supply only what differs: what they build and what they run.
func (s *Server) serveAPI(w http.ResponseWriter, r *http.Request, count *atomic.Int64, req request,
	build func() error, run func(context.Context) (reply, error)) {
	count.Add(1)
	start := time.Now()
	defer func() { s.m.lat.observe(float64(time.Since(start)) / float64(time.Millisecond)) }()

	sp := obs.FromContext(r.Context())
	ds := sp.Child("decode")
	status, err := s.decodeRequest(w, r, req, build)
	ds.End()
	var rep reply
	if err == nil {
		_, timeoutMs := req.header()
		ctx, cancel := s.requestContext(r, timeoutMs)
		defer cancel()
		if rep, err = run(ctx); err != nil {
			status, rep.label = errorStatus(err), "error"
		}
		setTraceOutcome(sp, rep.resp.Hash, rep.label)
	}
	rs := sp.Child("render")
	defer rs.End()
	switch {
	case err != nil:
		s.writeError(w, status, err)
	case rep.batch != nil:
		var schedules [][]byte
		for i := range rep.batch.Results {
			schedules = detachSchedule(&rep.batch.Results[i], schedules)
		}
		s.writeJSON(w, rep.status, rep.batch, schedules...)
	default:
		var one [1][]byte // a single reply's list stays on the stack
		schedules := detachSchedule(&rep.resp, one[:0])
		s.writeJSON(w, rep.status, rep.resp, schedules...)
	}
}

// setTraceOutcome stamps the root span with the request's cache key prefix
// and outcome label — what the request log and /debug/traces lead with.
func setTraceOutcome(sp obs.SpanRef, hash, outcome string) {
	if !sp.Active() {
		return
	}
	if len(hash) > 12 {
		hash = hash[:12]
	}
	if hash != "" {
		sp.SetArg("hash", hash)
	}
	if outcome != "" {
		sp.SetArg("outcome", outcome)
	}
}

// outcomeReply renders an Outcome in the envelope every /v1 reply shares,
// with the status and trace label it answers with: 409 for a typed
// infeasibility, else 200. Simulate passes its scenario results, which
// take the schedule's place and label the reply "simulated"; the other
// routes pass nil.
func outcomeReply(out Outcome, scenarios []ScenarioResult) reply {
	rep := reply{status: http.StatusOK, resp: SolveResponse{
		SchemaVersion: Version,
		Hash:          out.Hash,
		Cached:        out.Cached,
		Coalesced:     out.Coalesced,
		Schedule:      out.ScheduleJSON,
		Summary:       out.Summary,
		Replan:        replanStatsDTO(out.Replan),
		Infeasible:    out.Infeasible,
		Scenarios:     scenarios,
	}}
	switch {
	case out.Infeasible != nil:
		rep.status, rep.label = http.StatusConflict, "infeasible"
	case scenarios != nil:
		rep.resp.Schedule, rep.label = nil, "simulated"
	case out.Cached:
		rep.label = "cached"
	case out.Coalesced:
		rep.label = "coalesced"
	default:
		rep.label = "solved"
	}
	return rep
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	var spec Spec
	s.serveAPI(w, r, &s.m.reqSolve, &req, func() (err error) {
		spec, err = buildProblem(req.Graph, req.Platform, req.Options)
		return err
	}, func(ctx context.Context) (reply, error) {
		out, err := s.Handle.Solve(ctx, spec)
		return outcomeReply(out, nil), err
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	var results []BatchResult
	var specs []Spec
	var specIdx []int
	s.serveAPI(w, r, &s.m.reqBatch, &req, func() error {
		if len(req.Problems) == 0 {
			return errors.New("service: batch has no problems")
		}
		// Undecodable problems keep their error; the rest go through the
		// in-process batch pipeline.
		results = make([]BatchResult, len(req.Problems))
		for i, bp := range req.Problems {
			opts := req.Options
			if bp.Options != nil {
				opts = *bp.Options
			}
			spec, err := buildProblem(bp.Graph, bp.Platform, opts)
			if err != nil {
				results[i].Err = err
				continue
			}
			specs = append(specs, spec)
			specIdx = append(specIdx, i)
		}
		return nil
	}, func(ctx context.Context) (reply, error) {
		if sp := obs.FromContext(ctx); sp.Active() {
			sp.SetArg("problems", len(req.Problems))
		}
		for k, res := range s.Handle.SolveBatch(ctx, specs) {
			results[specIdx[k]] = res
		}
		// A batch whose every problem met the same admission refusal —
		// queue full or draining — was refused whole: answer it like any
		// refused request (429 or 503, with Retry-After) rather than a 200
		// full of refusals. Mixed outcomes keep the 200 envelope with
		// per-problem errors — cached results must not be discarded.
		for _, refusal := range []error{ErrQueueFull, ErrDraining} {
			all := true
			for i := range results {
				all = all && errors.Is(results[i].Err, refusal)
			}
			if all {
				return reply{}, refusal
			}
		}
		resp := &BatchResponse{SchemaVersion: Version, Results: make([]SolveResponse, len(results))}
		for i, res := range results {
			if res.Err != nil {
				resp.Results[i] = SolveResponse{SchemaVersion: Version, Hash: res.Outcome.Hash, Error: res.Err.Error()}
				continue
			}
			resp.Results[i] = outcomeReply(res.Outcome, nil).resp
		}
		return reply{status: http.StatusOK, batch: resp}, nil
	})
}

func (s *Server) handleReplan(w http.ResponseWriter, r *http.Request) {
	var req ReplanRequest
	var spec ReplanSpec
	s.serveAPI(w, r, &s.m.reqReplan, &req, func() (err error) {
		spec, err = replanSpec(req)
		return err
	}, func(ctx context.Context) (reply, error) {
		out, err := s.Handle.Replan(ctx, spec)
		return outcomeReply(out, nil), err
	})
}

// replanSpec decodes and pre-validates a replan request: everything wrong
// with it is a client error (400), not a computation to admit.
func replanSpec(req ReplanRequest) (ReplanSpec, error) {
	sp, err := buildProblem(req.Graph, req.Platform, req.Options)
	if err != nil {
		return ReplanSpec{}, err
	}
	if len(req.Schedule) == 0 {
		return ReplanSpec{}, errors.New("service: replan requires the committed schedule")
	}
	old, err := schedule.LoadJSON(req.Schedule, sp.Graph, sp.Platform)
	if err != nil {
		return ReplanSpec{}, fmt.Errorf("service: decoding schedule: %w", err)
	}
	// The committed schedule must agree with the solver options on the
	// replication degree and the period.
	if old.Eps != req.Options.Eps || old.Period != req.Options.Period {
		return ReplanSpec{}, fmt.Errorf("service: options (eps=%d, period=%v) do not match the schedule (eps=%d, period=%v)",
			req.Options.Eps, req.Options.Period, old.Eps, old.Period)
	}
	if req.RepairBudget < 0 {
		return ReplanSpec{}, fmt.Errorf("service: negative repair budget %d", req.RepairBudget)
	}
	delta := req.Delta.Build()
	if _, _, err := delta.Apply(sp.Platform); err != nil {
		return ReplanSpec{}, err
	}
	return ReplanSpec{Old: old, Solver: sp.Solver, Delta: delta, RepairBudget: req.RepairBudget, NoColdFallback: req.NoColdFallback}, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	var spec Spec
	s.serveAPI(w, r, &s.m.reqSimulate, &req, func() (err error) {
		if spec, err = buildProblem(req.Graph, req.Platform, req.Options); err != nil {
			return err
		}
		// Handle.Simulate runs the same check; making it here keeps a bad
		// scenario a 400 on a draining or busy server too, before any solve.
		return checkScenarios(req.Scenarios, spec)
	}, func(ctx context.Context) (reply, error) {
		out, results, err := s.Handle.Simulate(ctx, spec, req.Scenarios)
		return outcomeReply(out, results), err
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.m.reqHealthz.Add(1)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.m.start).Seconds(),
	})
}

// handleReadyz is readiness, distinct from /healthz liveness: it reports
// 503 while the warm-start replay runs and again once a drain begins, so
// a load balancer routes around a booting or terminating replica that is
// nonetheless alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ready"
	switch s.life.Load() {
	case lifeStarting:
		status, state = http.StatusServiceUnavailable, "starting"
	case lifeDraining:
		status, state = http.StatusServiceUnavailable, "draining"
	}
	s.writeJSON(w, status, map[string]any{"status": state})
}

// handleMetrics serves the metrics snapshot: the expvar-style JSON
// document by default, Prometheus text exposition when the scraper asks
// for it (?format=prometheus, or an Accept header preferring text/plain —
// how Prometheus itself scrapes).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.m.reqMetrics.Add(1)
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(renderPrometheus(s.snapshot()))
		s.m.countResponse(http.StatusOK)
		return
	}
	s.writeJSON(w, http.StatusOK, s.snapshot())
}
