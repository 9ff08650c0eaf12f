package service

// Fault-injection sites and per-flight panic isolation (DESIGN.md §11).
//
// Site naming convention: "service.<component>.<fault>", constants below
// so tests, the streamschedd -fault flag and the chaos smoke script spell
// them identically. Sites live on cold paths only — admission, flight
// entry, snapshot I/O — never inside //streamsched:hotpath functions
// (enforced by hotpathcheck): disarmed they cost one atomic load, and the
// hot path is budgeted tighter than that.
//
// Panic isolation. Flights run in detached goroutines, where an
// unrecovered panic kills the whole process, not just a request. Every
// flight body is therefore wrapped by recoverFault: a panic becomes an
// ErrInternalPanic-wrapped error fulfilled to the flight's waiters, the
// panics counter increments, and the admission slot is released by the
// unwound defers. The requester that led the flight reports the failure
// (HTTP 500 with the stable "internal-panic" token); coalesced followers
// do NOT inherit it — a panic is not a property of the problem, so
// followers re-enter the job path at claim (handle.go, await) and one of
// them leads a fresh flight. Retries are bounded: a deterministically
// panicking flight (site policy "always") surfaces the failure after
// maxPanicRetries rather than spinning.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"streamsched/internal/faultinject"
)

// Fault-injection site names. Arm them with faultinject.Enable (in-process
// tests) or the streamschedd -fault flag (chaos smoke).
const (
	// SiteFlightPanic panics inside a flight's computation, after the slow
	// site, so coalesced followers are already waiting when it fires.
	SiteFlightPanic = "service.flight.panic"
	// SiteFlightSlow sleeps inside a flight's computation; the policy
	// param is the duration (default 100ms).
	SiteFlightSlow = "service.flight.slow"
	// SiteAdmitReject makes admission reject the work unit as queue-full.
	SiteAdmitReject = "service.admit.reject"
	// SiteSnapshotWrite fails the cache spill.
	SiteSnapshotWrite = "service.snapshot.write"
	// SiteSnapshotReplay fails the boot-time snapshot replay.
	SiteSnapshotReplay = "service.snapshot.replay"
)

// ErrInternalPanic is the stable leading token of a recovered panic: the
// HTTP adapter maps it to 500 and clients match the "internal-panic"
// prefix, not the prose after it.
var ErrInternalPanic = errors.New("internal-panic")

// maxPanicRetries bounds how many times a coalesced follower re-enters
// the pipeline after its leader's flight panicked.
const maxPanicRetries = 2

// recoverFault converts a panic into an ErrInternalPanic error and counts
// it. Use as `defer h.recoverFault(&err)` around any code that runs in a
// detached flight goroutine.
func (h *Handle) recoverFault(err *error) {
	if r := recover(); r != nil {
		h.m.panics.Add(1)
		*err = fmt.Errorf("%w: %v", ErrInternalPanic, r)
	}
}

// injectFlightFaults honors the armed flight sites, in order: an induced
// slow solve (bounded by the flight's compute budget), then an induced
// panic.
func (h *Handle) injectFlightFaults(ctx context.Context) error {
	if faultinject.Fire(SiteFlightSlow) {
		d, err := time.ParseDuration(faultinject.Param(SiteFlightSlow))
		if err != nil || d <= 0 {
			d = 100 * time.Millisecond
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if faultinject.Fire(SiteFlightPanic) {
		panic("faultinject: " + SiteFlightPanic)
	}
	return nil
}
