package service

// Handle lifecycle: warm start, readiness, graceful drain (DESIGN.md §11).
//
// The drain state machine:
//
//	starting ──WarmStart──▶ ready ──Drain──▶ draining (terminal)
//
// starting: the process is replaying the cache snapshot. Requests are
// served (the cache is merely colder than it will be) but /readyz reports
// 503 so load balancers hold traffic back. A handle built without a
// snapshot path boots straight to ready.
//
// ready: steady state; /readyz reports 200.
//
// draining: SIGTERM (or an embedder's Drain call). Admission stops —
// Solve/SolveBatch/Replan/Simulate and the HTTP handlers reject new work
// with ErrDraining (503 + Retry-After) — in-flight flights run to
// completion under ctx (the daemon passes its MaxTimeout), and the cache
// is spilled only after the last flight has committed, so a drain under
// load loses zero committed entries. The flight WaitGroup and the drainMu
// write lock make the handoff airtight: a flight is registered under the
// read lock before it starts, so every flight either observes draining
// and is rejected, or is registered and therefore waited for.

import (
	"context"
	"errors"
	"time"
)

// Lifecycle states (Handle.life).
const (
	lifeStarting int32 = iota
	lifeReady
	lifeDraining
)

// ErrDraining is the admission rejection during shutdown; the HTTP
// adapter maps it to 503 with a Retry-After hint.
var ErrDraining = errors.New("service: draining, not admitting new work")

// Ready reports whether the handle has finished warm start and is not
// draining — the /readyz condition.
func (h *Handle) Ready() bool { return h.life.Load() == lifeReady }

// Draining reports whether Drain has begun.
func (h *Handle) Draining() bool { return h.life.Load() == lifeDraining }

// WarmStart replays the configured cache snapshot (persist.go), flips the
// handle ready, and starts the background snapshot ticker. It returns the
// replayed and skipped entry counts; err is advisory — corrupt or missing
// snapshots degrade to a cold start, never a failed boot. Without a
// snapshot path it only flips readiness. Call once, before or while
// serving; requests arriving during replay are served from whatever is
// already warm.
func (h *Handle) WarmStart() (replayed, skipped int, err error) {
	if h.cfg.SnapshotPath != "" {
		replayed, skipped, err = h.replaySnapshot()
		h.m.snapshotReplayed.Add(int64(replayed))
		h.m.snapshotSkipped.Add(int64(skipped))
	}
	h.life.CompareAndSwap(lifeStarting, lifeReady)
	h.startSnapshotLoop()
	return replayed, skipped, err
}

// startSnapshotLoop begins the periodic background spill.
func (h *Handle) startSnapshotLoop() {
	if h.cfg.SnapshotPath == "" || h.cfg.SnapshotInterval <= 0 {
		return
	}
	h.loopOnce.Do(func() {
		h.snapStop = make(chan struct{})
		h.snapDone = make(chan struct{})
		go func() {
			defer close(h.snapDone)
			t := time.NewTicker(h.cfg.SnapshotInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := h.SnapshotNow(); err != nil {
						h.cfg.Logf("service: background snapshot: %v", err)
					}
				case <-h.snapStop:
					return
				}
			}
		}()
	})
}

// stopSnapshotLoop halts the ticker and waits for a spill in progress, so
// the drain's final snapshot cannot interleave with a background one.
func (h *Handle) stopSnapshotLoop() {
	h.loopOnce.Do(func() {}) // never started: nothing to stop
	if h.snapStop == nil {
		return
	}
	select {
	case <-h.snapStop: // already closed by a previous drain
	default:
		close(h.snapStop)
	}
	<-h.snapDone
}

// DrainReport accounts a graceful drain phase by phase; the daemon logs
// each duration.
type DrainReport struct {
	// Flights is how long the drain waited for in-flight flights;
	// FlightsTimedOut reports that ctx expired first (abandoned flights
	// keep running under their own compute budget but their results may
	// miss the final spill).
	Flights         time.Duration
	FlightsTimedOut bool
	// Snapshot is the final cache spill: its duration, the entry count
	// spilled, and the write error if any (nil without a snapshot path,
	// where Entries is 0).
	Snapshot        time.Duration
	SnapshotEntries int
	SnapshotErr     error
}

// Drain executes the shutdown sequence: stop admission (new work is
// rejected with ErrDraining and /readyz goes down), wait for in-flight
// flights to finish under ctx, then spill the cache. Idempotent — later
// calls return the first drain's report.
func (h *Handle) Drain(ctx context.Context) DrainReport {
	h.drainOnce.Do(func() { h.drainRep = h.drain(ctx) })
	return h.drainRep
}

func (h *Handle) drain(ctx context.Context) (rep DrainReport) {
	// The write lock synchronizes with flight registration (claimFlight):
	// once it is released with life == draining, no further flight can
	// register, so the WaitGroup below covers every flight there will
	// ever be.
	h.drainMu.Lock()
	h.life.Store(lifeDraining)
	h.drainMu.Unlock()
	h.stopSnapshotLoop()

	start := time.Now()
	done := make(chan struct{})
	go func() {
		h.flightWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		rep.FlightsTimedOut = true
	}
	rep.Flights = time.Since(start)

	if h.cfg.SnapshotPath != "" {
		start = time.Now()
		rep.SnapshotEntries = h.cache.Len()
		rep.SnapshotErr = h.SnapshotNow()
		rep.Snapshot = time.Since(start)
	}
	return rep
}

// claimFlight claims leadership of hash, registering a led flight with
// the drain WaitGroup under the drain read lock — the pairing that lets
// Drain wait for exactly the flights that were admitted. The caller that
// receives leader=true MUST start a goroutine whose completion calls
// h.flightWG.Done (lead and leadBatch do).
func (h *Handle) claimFlight(hash string) (f *flight, leader bool, err error) {
	h.drainMu.RLock()
	defer h.drainMu.RUnlock()
	if h.life.Load() == lifeDraining {
		return nil, false, ErrDraining
	}
	f, leader = h.flights.Claim(hash)
	if leader {
		h.flightWG.Add(1)
	}
	return f, leader, nil
}
