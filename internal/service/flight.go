package service

// Singleflight coalescing: concurrent requests for the same problem hash
// solve once. The classic Do() shape is split into Claim/Fulfill so the
// batch handler can claim leadership of many hashes up front, run them
// through one core.Batch, and fulfill them as the results land.

import (
	"context"
	"sync"
)

// flight is one in-progress computation of a problem hash. job is what
// the leader computes, set before the leader starts it; done is closed
// exactly once, after out/err are written, so waiters read them without
// further synchronization.
type flight struct {
	done chan struct{}
	job  job
	out  Outcome
	err  error
}

// Wait blocks until the flight resolves or ctx is done. A waiter whose
// context expires abandons the flight; the leader keeps computing for the
// remaining waiters and the cache.
func (f *flight) Wait(ctx context.Context) (Outcome, error) {
	select {
	case <-f.done:
		return f.out, f.err
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
}

// flightGroup tracks the in-flight computations by problem hash.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// Claim returns the flight for key. leader reports whether the caller
// created it and therefore must Fulfill it — every Claim(leader=true) must
// be paired with exactly one Fulfill, or followers block until their
// contexts expire.
func (g *flightGroup) Claim(key string) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// Fulfill resolves the flight and removes it from the group; later
// requests for the same key consult the cache or start a fresh flight.
func (g *flightGroup) Fulfill(key string, f *flight, out Outcome, err error) {
	f.out, f.err = out, err
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
}
