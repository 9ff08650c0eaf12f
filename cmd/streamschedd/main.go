// Command streamschedd serves the scheduling pipeline over HTTP/JSON: the
// long-running companion to the one-shot streamsched CLI. It exposes
//
//	POST /v1/solve     one problem → schedule (200), typed infeasibility
//	                   (409), or backpressure (429 + Retry-After)
//	POST /v1/batch     many problems fanned through the solver worker pool
//	POST /v1/replan    committed schedule + platform delta → incrementally
//	                   repaired schedule with repair stats (200), typed
//	                   infeasibility or exceeded repair budget (409)
//	POST /v1/simulate  solve + a scenario sweep on one simulation engine
//	GET  /healthz      liveness
//	GET  /readyz       readiness: 503 during warm start and drain
//	GET  /metrics      counters: requests, cache hit ratio, queue depth,
//	                   p50/p90/p99 latency, panics, snapshots — JSON by
//	                   default, Prometheus text with ?format=prometheus or
//	                   an Accept: text/plain scrape
//	GET  /debug/traces recent request traces: span-tree JSON, or the Chrome
//	                   trace-event form with ?format=chrome
//
// Identical concurrent problems solve once (canonical hashing + coalescing)
// and repeat problems — solves and replans alike — are served from a
// bounded LRU cache; see internal/service and DESIGN.md §8, §10.
//
// Observability (DESIGN.md §12). Tracing is on by default (-trace=false
// disables it): every request carries an X-Trace-Id response header,
// ?debug=timing adds a Server-Timing stage breakdown, recent API traces
// are retained for /debug/traces (-trace-ring bounds the window), and the
// daemon logs one structured JSON line per request to stderr. Operational
// log lines are structured JSON too (log/slog). -pprof mounts the
// net/http/pprof handlers under /debug/pprof/ — off by default because
// profile endpoints expose process internals and cost CPU when scraped;
// enable it on instances you are actively profiling, behind network ACLs.
//
// With -snapshot the cache survives restarts: it is spilled to the given
// path periodically and on graceful shutdown, and replayed on boot, so a
// restarted daemon serves repeat traffic as cache hits (DESIGN.md §11).
// SIGTERM/SIGINT triggers the graceful drain: readiness drops, new work is
// rejected with 503 + Retry-After, in-flight flights finish under the
// -max-timeout budget, the cache is spilled, and the listener closes.
//
//	streamschedd -addr :8080 -workers 8 -queue 32 -cache 1024 \
//	    -snapshot /var/lib/streamsched/cache.snap
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streamsched/internal/faultinject"
	"streamsched/internal/service"
)

// faultSpecs collects repeatable -fault flags.
type faultSpecs []string

func (f *faultSpecs) String() string     { return strings.Join(*f, ",") }
func (f *faultSpecs) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	var faults faultSpecs
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "concurrent solve/simulate work units (0: GOMAXPROCS)")
		queue      = flag.Int("queue", -1, "bounded work queue beyond the workers (-1: 4×workers, 0: no queue)")
		cache      = flag.Int("cache", 1024, "result cache entries (LRU)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "ceiling on client-requested deadlines and per-flight compute budget")
		retry      = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		maxBody    = flag.Int64("max-body", 16<<20, "maximum request body bytes")
		snapshot   = flag.String("snapshot", "", "cache snapshot path: spill on shutdown and periodically, replay on boot (empty: disabled)")
		snapEvery  = flag.Duration("snapshot-interval", 30*time.Second, "background cache spill period (requires -snapshot; <0: drain-only spill)")
		tracing    = flag.Bool("trace", true, "per-request tracing: X-Trace-Id, /debug/traces, stage latency metrics, request logs")
		traceRing  = flag.Int("trace-ring", 128, "recent traces retained for /debug/traces (requires -trace)")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (costs CPU when scraped; keep behind ACLs)")
	)
	flag.Var(&faults, "fault", "arm a fault-injection site, site=policy (repeatable; policies: always[:param], nth:N[:param], prob:P:SEED[:param]) — chaos testing only")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	if len(faults) > 0 {
		if err := faultinject.ParseSpec(strings.Join(faults, ",")); err != nil {
			fmt.Fprintln(os.Stderr, "streamschedd:", err)
			os.Exit(2)
		}
		logger.Warn("fault injection armed", "spec", faults.String())
	}

	cfg := service.Config{
		Workers:          *workers,
		CacheEntries:     *cache,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		RetryAfter:       *retry,
		MaxBodyBytes:     *maxBody,
		SnapshotPath:     *snapshot,
		SnapshotInterval: *snapEvery,
		Tracing:          *tracing,
		TraceRingSize:    *traceRing,
		Logf: func(format string, args ...any) {
			logger.Warn(fmt.Sprintf(format, args...))
		},
	}
	if *tracing {
		cfg.RequestLog = func(e service.RequestLogEntry) {
			attrs := []any{
				"traceId", e.TraceID,
				"method", e.Method,
				"path", e.Path,
				"status", e.Status,
				"durationMs", e.DurationMs,
			}
			if e.Hash != "" {
				attrs = append(attrs, "hash", e.Hash)
			}
			if e.Outcome != "" {
				attrs = append(attrs, "outcome", e.Outcome)
			}
			if len(e.Stages) > 0 {
				attrs = append(attrs, "stagesMs", e.Stages)
			}
			logger.Info("request", attrs...)
		}
	}
	switch {
	case *queue == 0:
		cfg.QueueLimit = -1
	case *queue > 0:
		cfg.QueueLimit = *queue
	}
	srv := service.New(cfg)

	handler := srv.Handler()
	if *pprofOn {
		// Wrap the service handler rather than registering on it: the pprof
		// handlers must bypass the tracing/recovery middlewares (a CPU
		// profile lasting 30s would pin a trace open the whole time).
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		logger.Info("pprof enabled", "prefix", "/debug/pprof/")
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Warm start concurrently with the listener coming up: /readyz reports
	// 503 until the replay lands, but requests that do arrive are served.
	go func() {
		start := time.Now()
		replayed, skipped, err := srv.WarmStart()
		if err != nil {
			logger.Error("warm start failed; continuing cold", "err", err)
		}
		if *snapshot != "" {
			logger.Info("warm start", "replayed", replayed, "skipped", skipped,
				"elapsed", time.Since(start).Round(time.Millisecond).String())
		}
	}()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "tracing", *tracing)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "streamschedd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Graceful drain: stop admission first (readiness drops, new work
		// gets 503 + Retry-After), let in-flight flights finish under the
		// compute budget, spill the cache, then close the listener.
		logger.Info("drain: admission stopped")
		drainCtx, cancel := context.WithTimeout(context.Background(), *maxTimeout)
		rep := srv.Drain(drainCtx)
		cancel()
		if rep.FlightsTimedOut {
			logger.Warn("drain: flight wait timed out; abandoning stragglers",
				"waited", rep.Flights.Round(time.Millisecond).String())
		} else {
			logger.Info("drain: in-flight work finished",
				"elapsed", rep.Flights.Round(time.Millisecond).String())
		}
		if *snapshot != "" {
			if rep.SnapshotErr != nil {
				logger.Error("drain: cache spill failed", "err", rep.SnapshotErr)
			} else {
				logger.Info("drain: cache spilled", "entries", rep.SnapshotEntries,
					"elapsed", rep.Snapshot.Round(time.Millisecond).String())
			}
		}
		start := time.Now()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "streamschedd: shutdown:", err)
			os.Exit(1)
		}
		logger.Info("drain: listener closed", "elapsed", time.Since(start).Round(time.Millisecond).String())
	}
}
