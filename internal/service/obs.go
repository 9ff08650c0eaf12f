package service

// Request tracing: the HTTP-layer half of the observability surface
// (DESIGN.md §12). traceMiddleware opens one obs.Trace per request,
// stamps X-Trace-Id, threads the root span through the request context
// (where handle.go and the solver stack hang their child spans), and at
// response time finishes the trace, feeds the per-stage latency rings,
// retains API traces in the /debug/traces ring, and emits the optional
// structured request log record. When tracing is disabled the middleware
// is an identity function — requests pay only the per-site atomic load
// inside obs.FromContext.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"streamsched/internal/obs"
	"streamsched/internal/trace"
)

// RequestLogEntry is one traced HTTP request, delivered to
// Config.RequestLog after the response is written. The daemon renders it
// as a single structured JSON log line.
type RequestLogEntry struct {
	TraceID    string             `json:"traceId"`
	Method     string             `json:"method"`
	Path       string             `json:"path"`
	Status     int                `json:"status"`
	Hash       string             `json:"hash,omitempty"`    // canonical problem hash prefix, when known
	Outcome    string             `json:"outcome,omitempty"` // cached | coalesced | solved | infeasible | error | ...
	DurationMs float64            `json:"durationMs"`
	Stages     map[string]float64 `json:"stages,omitempty"` // per-stage milliseconds
}

// traceMiddleware wraps the routing table with per-request tracing. It
// sits OUTSIDE the recovery middleware so a panicking handler still gets
// its trace finished — with the 500 the recovery layer writes — and
// logged.
func (s *Server) traceMiddleware(next http.Handler) http.Handler {
	if s.traces == nil { // tracing disabled: identity, zero overhead
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(r.URL.Path)
		// Stamp the ID eagerly, before the handler writes the header, so
		// every response — including errors — carries it.
		w.Header().Set("X-Trace-Id", tr.ID)
		tw := &timingWriter{ResponseWriter: w, tr: tr, wantTiming: r.URL.Query().Get("debug") == "timing"}
		next.ServeHTTP(tw, r.WithContext(obs.ContextWith(r.Context(), tr.Root())))
		status := tw.status
		if status == 0 { // handler never wrote a header; net/http defaults to 200
			status = http.StatusOK
		}
		tr.Finish(status)
		s.m.observeTrace(tr)
		// Only API traces are worth retaining: /healthz, /metrics and
		// /debug/traces itself would flood the ring with no-op trees.
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			s.traces.Add(tr)
		}
		if s.cfg.RequestLog != nil {
			s.cfg.RequestLog(requestLogEntry(tr, r, status))
		}
	})
}

// requestLogEntry assembles the structured log record for a finished
// trace. Hash and outcome are root-span args stamped by the /v1 path
// (setTraceOutcome).
func requestLogEntry(tr *obs.Trace, r *http.Request, status int) RequestLogEntry {
	e := RequestLogEntry{
		TraceID:    tr.ID,
		Method:     r.Method,
		Path:       r.URL.Path,
		Status:     status,
		DurationMs: tr.DurationMs(),
	}
	if h, ok := tr.RootArg("hash").(string); ok {
		e.Hash = h
	}
	if o, ok := tr.RootArg("outcome").(string); ok {
		e.Outcome = o
	}
	if st := tr.StageMillis(); len(st) > 0 {
		e.Stages = make(map[string]float64, len(st))
		for _, s := range st {
			e.Stages[s.Name] += s.Ms
		}
	}
	return e
}

// timingWriter captures the response status for the trace and, when the
// client asked for ?debug=timing, injects a Server-Timing header with the
// per-stage breakdown at the moment the header is flushed (the last point
// a header can still be set).
type timingWriter struct {
	http.ResponseWriter
	tr         *obs.Trace
	wantTiming bool
	status     int
}

func (w *timingWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
		if w.wantTiming {
			if st := w.tr.ServerTiming(); st != "" {
				w.Header().Set("Server-Timing", st)
			}
		}
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *timingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// handleDebugTraces serves the recent-trace ring: the span-tree JSON by
// default, the Chrome trace-event form (load into chrome://tracing or
// Perfetto) with ?format=chrome. 404 when tracing is disabled — the
// endpoint existing-but-empty would read as "no traffic", which is wrong.
// Its errors render in the envelope every other endpoint shares.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	s.m.reqDebug.Add(1)
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("service: %s requires GET", r.URL.Path))
		return
	}
	if s.traces == nil {
		s.writeError(w, http.StatusNotFound, errors.New("service: tracing disabled"))
		return
	}
	recent := s.traces.Snapshot()
	if r.URL.Query().Get("format") == "chrome" {
		var spans []trace.Span
		for _, t := range recent {
			spans = append(spans, t.ChromeSpans()...)
		}
		raw, err := trace.ChromeJSON(spans)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		s.writeJSON(w, http.StatusOK, json.RawMessage(raw))
		return
	}
	docs := make([]obs.TraceJSON, len(recent))
	for i, t := range recent {
		docs[i] = t.Snapshot()
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"count": len(docs), "traces": docs})
}
