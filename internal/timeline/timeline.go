// Package timeline implements busy-interval timelines for contention-aware
// scheduling. A Timeline records disjoint, sorted busy intervals on one
// resource (a processor's compute unit, a send port, a receive port). The
// schedulers place work with an insertion-based policy: a reservation may
// fill any gap large enough, not only the region after the last interval.
//
// A Timeline is a plain sorted interval set. Queries (EarliestGap,
// EarliestCommonGap) never mutate. Reserve returns the index it inserted
// at, and RemoveAt withdraws it again: the one-port layer journals those
// indices to roll trial placements back (DESIGN.md §7, "Transactional
// timelines").
package timeline

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Interval is a half-open busy interval [Start, End).
type Interval struct {
	Start, End float64
}

// Len returns the interval length.
func (iv Interval) Len() float64 { return iv.End - iv.Start }

// Overlaps reports whether iv and other share any point (half-open).
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End && other.Start < iv.End
}

// Timeline is a set of disjoint busy intervals sorted by start time.
// The zero value is an empty, ready-to-use timeline.
type Timeline struct {
	busy []Interval
}

// Busy returns the busy intervals in increasing start order. The returned
// slice aliases internal state and must not be modified.
func (tl *Timeline) Busy() []Interval { return tl.busy }

// Len returns the number of busy intervals.
func (tl *Timeline) Len() int { return len(tl.busy) }

// TotalBusy returns the summed length of all busy intervals.
func (tl *Timeline) TotalBusy() float64 {
	sum := 0.0
	for _, iv := range tl.busy {
		sum += iv.Len()
	}
	return sum
}

// Horizon returns the end of the last busy interval (0 when empty).
func (tl *Timeline) Horizon() float64 {
	if len(tl.busy) == 0 {
		return 0
	}
	return tl.busy[len(tl.busy)-1].End
}

// Reset removes all reservations.
func (tl *Timeline) Reset() { tl.busy = tl.busy[:0] }

// eps absorbs floating-point jitter when comparing interval endpoints:
// a gap is accepted if it is at least (duration - eps) long.
const eps = 1e-9

// EarliestGap returns the earliest start time s ≥ ready such that
// [s, s+dur) does not overlap any busy interval. A zero dur fits anywhere
// at or after ready. dur must be non-negative.
func (tl *Timeline) EarliestGap(ready, dur float64) float64 {
	if dur < 0 {
		panicNegativeDuration(dur)
	}
	s, _ := tl.scan(ready, dur, tl.firstEndAfter(ready))
	return s
}

// firstEndAfter returns the index of the first busy interval that ends
// after s: the first that can constrain a slot starting at s.
func (tl *Timeline) firstEndAfter(s float64) int {
	return sort.Search(len(tl.busy), func(k int) bool { return tl.busy[k].End > s })
}

// scan is the gap search from cursor i, where every interval before i ends
// at or before s: it pushes s past every interval that [s, s+dur) does not
// fit before. It returns the slot and the cursor it stopped at, which
// satisfies the precondition again for any later s' ≥ s.
//
//streamsched:hotpath
func (tl *Timeline) scan(s, dur float64, i int) (float64, int) {
	for ; i < len(tl.busy); i++ {
		iv := tl.busy[i]
		if iv.Start-s >= dur-eps {
			break // fits in the gap before iv
		}
		if iv.End > s {
			s = iv.End
		}
	}
	return s, i
}

// panicNegativeDuration is the gap searches' cold panic path: the message
// formatting stays out of the hot-path functions.
func panicNegativeDuration(dur float64) {
	panic(fmt.Sprintf("timeline: negative duration %v", dur))
}

// FitsAt reports whether [s, s+dur) is free.
func (tl *Timeline) FitsAt(s, dur float64) bool {
	probe := Interval{Start: s, End: s + dur}
	i := sort.Search(len(tl.busy), func(k int) bool { return tl.busy[k].End > s })
	if i < len(tl.busy) && dur > 0 && tl.busy[i].Overlaps(probe) {
		return false
	}
	return true
}

// Reserve inserts a busy interval and returns the index it now occupies,
// for a later RemoveAt. It returns an error if the interval overlaps an
// existing reservation or has negative length. Zero-length intervals are
// accepted and ignored; their index is −1.
//
//streamsched:hotpath
func (tl *Timeline) Reserve(iv Interval) (int, error) {
	if iv.End < iv.Start {
		return -1, errInvalidInterval(iv)
	}
	if iv.Len() == 0 {
		return -1, nil
	}
	i := sort.Search(len(tl.busy), func(k int) bool { return tl.busy[k].Start >= iv.Start })
	// Check neighbours for overlap, tolerating eps-sized numerical overlap.
	if i > 0 && tl.busy[i-1].End > iv.Start+eps {
		return -1, errOverlap(iv, tl.busy[i-1])
	}
	if i < len(tl.busy) && tl.busy[i].Start < iv.End-eps {
		return -1, errOverlap(iv, tl.busy[i])
	}
	tl.busy = slices.Insert(tl.busy, i, iv)
	return i, nil
}

// Cold error constructors keep message formatting out of Reserve, whose
// per-call allocation budget the PR2 benchmarks pin.
func errInvalidInterval(iv Interval) error {
	return fmt.Errorf("timeline: invalid interval [%v,%v)", iv.Start, iv.End)
}

func errOverlap(iv, busy Interval) error {
	return fmt.Errorf("timeline: [%v,%v) overlaps [%v,%v)", iv.Start, iv.End, busy.Start, busy.End)
}

// MustReserve is Reserve but panics on error; used where the caller has
// already validated the slot via EarliestGap/FitsAt.
func (tl *Timeline) MustReserve(iv Interval) int {
	i, err := tl.Reserve(iv)
	if err != nil {
		panic(err)
	}
	return i
}

// RemoveAt withdraws the interval at index i, as returned by Reserve. The
// index stays valid while removals unwind the most recent reservation
// first: every later insertion has been removed by then, so none has
// shifted it.
//
//streamsched:hotpath
func (tl *Timeline) RemoveAt(i int) { tl.busy = slices.Delete(tl.busy, i, i+1) }

// EarliestCommonGap returns the earliest s ≥ ready such that [s, s+dur) is
// free on both a and b. This is the placement primitive for one-port
// transfers, which occupy the sender's send port and the receiver's receive
// port over the same window.
//
// It is one walk over the two timelines: one binary search each, then
// passes that scan a and then b from their cursors until neither moves s.
// The cursors only advance, so a call costs O(log n + intervals passed).
// The result is exactly what alternating EarliestGap on a and b until
// neither moves returns, whenever every busy interval is longer than eps:
// each pass then equals an EarliestGap call from the current s, because
// an interval the cursor meets that ends by s starts more than eps before
// it, so the scan steps over it as the binary search would. Every pass
// that does not end the walk moves s to some interval's end, so the walk
// terminates.
//
//streamsched:hotpath
func EarliestCommonGap(ready, dur float64, a, b *Timeline) float64 {
	if dur < 0 {
		panicNegativeDuration(dur)
	}
	s := ready
	i, j := a.firstEndAfter(s), b.firstEndAfter(s)
	for {
		from := s
		s, i = a.scan(s, dur, i)
		s, j = b.scan(s, dur, j)
		if s == from {
			return s
		}
	}
}

// Utilization returns TotalBusy / horizon. Zero horizon yields 0; callers
// measuring periodic load pass the period explicitly.
func (tl *Timeline) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	return tl.TotalBusy() / horizon
}

// Validate checks the internal invariant: sorted, disjoint, well-formed
// intervals. It exists for tests and schedule auditing.
func (tl *Timeline) Validate() error {
	prevEnd := math.Inf(-1)
	for i, iv := range tl.busy {
		if iv.End < iv.Start {
			return fmt.Errorf("timeline: interval %d inverted [%v,%v)", i, iv.Start, iv.End)
		}
		if iv.Start < prevEnd-eps {
			return fmt.Errorf("timeline: interval %d overlaps previous (start %v < prev end %v)", i, iv.Start, prevEnd)
		}
		prevEnd = iv.End
	}
	return nil
}
