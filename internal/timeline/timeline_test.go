package timeline

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"streamsched/internal/rng"
)

func mustReserve(t *testing.T, tl *Timeline, start, end float64) {
	t.Helper()
	if _, err := tl.Reserve(Interval{Start: start, End: end}); err != nil {
		t.Fatalf("Reserve(%v,%v): %v", start, end, err)
	}
}

func TestEmptyTimelineGap(t *testing.T) {
	var tl Timeline
	if got := tl.EarliestGap(5, 3); got != 5 {
		t.Fatalf("EarliestGap = %v, want 5", got)
	}
}

func TestGapBeforeFirstInterval(t *testing.T) {
	var tl Timeline
	mustReserve(t, &tl, 10, 20)
	if got := tl.EarliestGap(0, 5); got != 0 {
		t.Fatalf("EarliestGap = %v, want 0", got)
	}
}

func TestGapTooSmallBeforeInterval(t *testing.T) {
	var tl Timeline
	mustReserve(t, &tl, 4, 8)
	if got := tl.EarliestGap(0, 5); got != 8 {
		t.Fatalf("EarliestGap = %v, want 8", got)
	}
}

func TestGapBetweenIntervals(t *testing.T) {
	var tl Timeline
	mustReserve(t, &tl, 0, 5)
	mustReserve(t, &tl, 12, 20)
	if got := tl.EarliestGap(0, 7); got != 5 {
		t.Fatalf("EarliestGap = %v, want 5 (gap [5,12))", got)
	}
	if got := tl.EarliestGap(0, 8); got != 20 {
		t.Fatalf("EarliestGap = %v, want 20", got)
	}
}

func TestGapExactFit(t *testing.T) {
	var tl Timeline
	mustReserve(t, &tl, 0, 5)
	mustReserve(t, &tl, 10, 20)
	if got := tl.EarliestGap(0, 5); got != 5 {
		t.Fatalf("exact-fit gap = %v, want 5", got)
	}
}

func TestGapReadyInsideBusy(t *testing.T) {
	var tl Timeline
	mustReserve(t, &tl, 0, 10)
	if got := tl.EarliestGap(4, 2); got != 10 {
		t.Fatalf("EarliestGap = %v, want 10", got)
	}
}

func TestZeroDurationGap(t *testing.T) {
	var tl Timeline
	mustReserve(t, &tl, 0, 10)
	if got := tl.EarliestGap(5, 0); got != 10 {
		// zero-duration work still cannot start strictly inside a busy
		// interval; it lands at the interval end.
		t.Fatalf("EarliestGap = %v, want 10", got)
	}
	if got := tl.EarliestGap(12, 0); got != 12 {
		t.Fatalf("EarliestGap = %v, want 12", got)
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var tl Timeline
	tl.EarliestGap(0, -1)
}

func TestReserveRejectsOverlap(t *testing.T) {
	var tl Timeline
	mustReserve(t, &tl, 0, 10)
	if _, err := tl.Reserve(Interval{Start: 5, End: 15}); err == nil {
		t.Fatal("expected overlap error")
	}
	if _, err := tl.Reserve(Interval{Start: -5, End: 1}); err == nil {
		t.Fatal("expected overlap error (left)")
	}
}

func TestReserveAdjacentOK(t *testing.T) {
	var tl Timeline
	mustReserve(t, &tl, 0, 10)
	mustReserve(t, &tl, 10, 20) // touching is fine (half-open)
	mustReserve(t, &tl, -5, 0)
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReserveInverted(t *testing.T) {
	var tl Timeline
	if _, err := tl.Reserve(Interval{Start: 5, End: 3}); err == nil {
		t.Fatal("expected error for inverted interval")
	}
}

func TestReserveZeroLengthIgnored(t *testing.T) {
	var tl Timeline
	i, err := tl.Reserve(Interval{Start: 5, End: 5})
	if err != nil {
		t.Fatal(err)
	}
	if i != -1 {
		t.Fatalf("zero-length interval got index %d, want -1", i)
	}
	if tl.Len() != 0 {
		t.Fatalf("zero-length interval stored, Len=%d", tl.Len())
	}
}

func TestFitsAt(t *testing.T) {
	var tl Timeline
	mustReserve(t, &tl, 5, 10)
	cases := []struct {
		s, d float64
		want bool
	}{
		{0, 5, true},
		{0, 6, false},
		{10, 3, true},
		{7, 1, false},
		{4, 1, true},
	}
	for _, c := range cases {
		if got := tl.FitsAt(c.s, c.d); got != c.want {
			t.Errorf("FitsAt(%v,%v) = %v, want %v", c.s, c.d, got, c.want)
		}
	}
}

func TestHorizonAndTotals(t *testing.T) {
	var tl Timeline
	mustReserve(t, &tl, 0, 4)
	mustReserve(t, &tl, 6, 10)
	if got := tl.Horizon(); got != 10 {
		t.Fatalf("Horizon = %v", got)
	}
	if got := tl.TotalBusy(); got != 8 {
		t.Fatalf("TotalBusy = %v", got)
	}
	if got := tl.Utilization(20); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("Utilization = %v", got)
	}
	if got := tl.Utilization(0); got != 0 {
		t.Fatalf("Utilization(0) = %v", got)
	}
}

func TestReset(t *testing.T) {
	var tl Timeline
	mustReserve(t, &tl, 0, 5)
	tl.Reset()
	if tl.Len() != 0 || tl.Horizon() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestEarliestCommonGapBasic(t *testing.T) {
	var a, b Timeline
	mustReserve(t, &a, 0, 5)
	mustReserve(t, &b, 6, 10)
	// dur 1: a free from 5, b busy [6,10): common [5,6) fits exactly.
	if got := EarliestCommonGap(0, 1, &a, &b); got != 5 {
		t.Fatalf("common gap = %v, want 5", got)
	}
	// dur 2 does not fit in [5,6): next common slot at 10.
	if got := EarliestCommonGap(0, 2, &a, &b); got != 10 {
		t.Fatalf("common gap = %v, want 10", got)
	}
}

// Three resources in two timelines: b and c are disjoint, so one timeline
// holds both, and the walk must clear a's, b's and c's intervals.
func TestEarliestCommonGapThreeResources(t *testing.T) {
	var a, bc Timeline
	mustReserve(t, &a, 0, 2)
	mustReserve(t, &bc, 3, 5)
	mustReserve(t, &bc, 6, 8)
	// dur 1: [2,3) is free on both.
	if got := EarliestCommonGap(0, 1, &a, &bc); got != 2 {
		t.Fatalf("common gap = %v, want 2", got)
	}
	if got := EarliestCommonGap(0, 4, &a, &bc); got != 8 {
		t.Fatalf("common gap = %v, want 8", got)
	}
}

// An empty partner timeline leaves the other's own gap.
func TestEarliestCommonGapSingle(t *testing.T) {
	var a, empty Timeline
	mustReserve(t, &a, 1, 3)
	if got := EarliestCommonGap(0, 1, &a, &empty); got != 0 {
		t.Fatalf("got %v", got)
	}
	if got := EarliestCommonGap(0, 2, &empty, &a); got != 3 {
		t.Fatalf("got %v, want 3", got)
	}
}

func TestEarliestCommonGapNoTimelines(t *testing.T) {
	var a, b Timeline
	if got := EarliestCommonGap(7, 3, &a, &b); got != 7 {
		t.Fatalf("got %v, want ready", got)
	}
}

// alternatingCommonGap is the search EarliestCommonGap replaced: fresh
// EarliestGap calls on each timeline in turn until neither moves. It is
// the reference the walk must equal.
func alternatingCommonGap(ready, dur float64, tls ...*Timeline) float64 {
	s := ready
	for {
		moved := false
		for _, tl := range tls {
			if ns := tl.EarliestGap(s, dur); ns > s {
				s, moved = ns, true
			}
		}
		if !moved {
			return s
		}
	}
}

// randomPort builds a port timeline whose neighbours often touch within
// eps: each interval starts at the previous end, eps before or after it,
// or a real gap later.
func randomPort(r *rng.Source, n int) *Timeline {
	tl := &Timeline{}
	end := r.Uniform(0, 3)
	for i := 0; i < n; i++ {
		start := end
		switch r.IntN(4) {
		case 0:
			start = end - r.Uniform(0, eps)
		case 1:
			start = end + r.Uniform(0, eps)
		case 2:
			start = end + r.Uniform(0, 3)
		}
		end = start + r.Uniform(0.01, 3)
		tl.MustReserve(Interval{Start: start, End: end})
	}
	return tl
}

// The two-timeline walk returns exactly what the alternating loop returns:
// on eps-touching neighbours, with zero durations, durations that fit a
// gap exactly, and ready inside, between, on the edge of and after the
// intervals.
func TestEarliestCommonGapMatchesAlternating(t *testing.T) {
	r := rng.New(22)
	for trial := 0; trial < 3000; trial++ {
		a, b := randomPort(r, r.IntN(12)), randomPort(r, r.IntN(12))
		readies := []float64{0, r.Uniform(0, 40), a.Horizon() + 1}
		for _, iv := range append(append([]Interval(nil), a.Busy()...), b.Busy()...) {
			readies = append(readies, iv.Start, iv.End, iv.End-eps/2, (iv.Start+iv.End)/2)
		}
		durs := []float64{0, eps / 2, r.Uniform(0, 1), r.Uniform(0, 5)}
		if n := a.Len(); n > 1 {
			durs = append(durs, a.Busy()[1].Start-a.Busy()[0].End)
		}
		for _, ready := range readies {
			for _, dur := range durs {
				if dur < 0 {
					continue
				}
				want := alternatingCommonGap(ready, dur, a, b)
				if got := EarliestCommonGap(ready, dur, a, b); got != want {
					t.Fatalf("trial %d ready %v dur %v: walk %v, alternating %v\na %v\nb %v", trial, ready, dur, got, want, a.Busy(), b.Busy())
				}
				if got := EarliestCommonGap(ready, dur, b, a); got != alternatingCommonGap(ready, dur, b, a) {
					t.Fatalf("trial %d ready %v dur %v (b, a): walk %v, alternating %v", trial, ready, dur, got, alternatingCommonGap(ready, dur, b, a))
				}
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tl := &Timeline{busy: []Interval{{Start: 0, End: 5}, {Start: 3, End: 7}}}
	if err := tl.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

// Property: the slot returned by EarliestGap always fits, and no earlier
// slot aligned to interval ends fits.
func TestEarliestGapProperty(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 300; trial++ {
		var tl Timeline
		end := 0.0
		for i := 0; i < r.IntN(20); i++ {
			start := end + r.Uniform(0, 5)
			end = start + r.Uniform(0.1, 5)
			tl.MustReserve(Interval{Start: start, End: end})
		}
		ready := r.Uniform(0, 30)
		dur := r.Uniform(0, 10)
		s := tl.EarliestGap(ready, dur)
		if s < ready {
			t.Fatalf("slot %v before ready %v", s, ready)
		}
		if !tl.FitsAt(s, dur-2*1e-9) {
			t.Fatalf("returned slot does not fit: s=%v dur=%v busy=%v", s, dur, tl.Busy())
		}
	}
}

// Property: after any sequence of random reservations through EarliestGap,
// the timeline validates.
func TestReserveSequenceProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		var tl Timeline
		for i := 0; i < 50; i++ {
			ready := r.Uniform(0, 50)
			dur := r.Uniform(0, 5)
			s := tl.EarliestGap(ready, dur)
			if _, err := tl.Reserve(Interval{Start: s, End: s + dur}); err != nil {
				return false
			}
		}
		return tl.Validate() == nil
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: EarliestCommonGap result fits on every timeline.
func TestCommonGapProperty(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 200; trial++ {
		tls := make([]*Timeline, 2)
		for j := range tls {
			tls[j] = &Timeline{}
			end := 0.0
			for i := 0; i < r.IntN(15); i++ {
				start := end + r.Uniform(0, 4)
				end = start + r.Uniform(0.1, 4)
				tls[j].MustReserve(Interval{Start: start, End: end})
			}
		}
		ready := r.Uniform(0, 20)
		dur := r.Uniform(0.1, 6)
		s := EarliestCommonGap(ready, dur, tls[0], tls[1])
		if s < ready {
			t.Fatalf("slot before ready")
		}
		for j, tl := range tls {
			if !tl.FitsAt(s, dur-2*1e-9) {
				t.Fatalf("slot %v dur %v does not fit timeline %d: %v", s, dur, j, tl.Busy())
			}
		}
	}
}

func TestIntervalOverlaps(t *testing.T) {
	a := Interval{Start: 0, End: 5}
	if !a.Overlaps(Interval{Start: 4, End: 6}) {
		t.Fatal("expected overlap")
	}
	if a.Overlaps(Interval{Start: 5, End: 6}) {
		t.Fatal("touching intervals must not overlap (half-open)")
	}
	if a.Len() != 5 {
		t.Fatalf("Len = %v", a.Len())
	}
}

func BenchmarkEarliestGap(b *testing.B) {
	var tl Timeline
	for i := 0; i < 1000; i++ {
		tl.MustReserve(Interval{Start: float64(2 * i), End: float64(2*i) + 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tl.EarliestGap(0, 1.5)
	}
}

func BenchmarkReserve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var tl Timeline
		for j := 0; j < 100; j++ {
			s := tl.EarliestGap(0, 1)
			tl.MustReserve(Interval{Start: s, End: s + 1})
		}
	}
}

// journal is the caller-side undo log the one-port layer keeps: the index
// each non-empty Reserve returned, unwound most recent first by RemoveAt.
type journal []int

func (j *journal) reserve(t *testing.T, tl *Timeline, iv Interval) int {
	t.Helper()
	i, err := tl.Reserve(iv)
	if err != nil {
		t.Fatal(err)
	}
	if i >= 0 {
		*j = append(*j, i)
	}
	return i
}

func (j *journal) rollback(tl *Timeline, mark int) {
	for len(*j) > mark {
		last := len(*j) - 1
		tl.RemoveAt((*j)[last])
		*j = (*j)[:last]
	}
}

// TestJournalRollback reserves around kept intervals so that later
// insertions land before and between earlier ones, then rolls them back
// most recent first by the indices Reserve returned: each index must still
// name its interval when its turn comes.
func TestJournalRollback(t *testing.T) {
	var tl Timeline
	var j journal
	keep := Interval{Start: 0, End: 1}
	j.reserve(t, &tl, Interval{Start: 8, End: 9})
	j.reserve(t, &tl, keep)
	mark := len(j)
	ivs := []Interval{{Start: 4, End: 5}, {Start: 2, End: 3}, {Start: 6, End: 7}, {Start: -2, End: -1}}
	for _, iv := range ivs {
		i := j.reserve(t, &tl, iv)
		if got := tl.Busy()[i]; got != iv {
			t.Fatalf("Reserve(%v) returned index %d holding %v", iv, i, got)
		}
	}
	if want := []int{1, 1, 3, 0}; !slices.Equal(j[mark:], want) {
		t.Fatalf("insertion indices %v, want %v", j[mark:], want)
	}
	for k := len(ivs) - 1; k >= 0; k-- {
		if got := tl.Busy()[j[mark+k]]; got != ivs[k] {
			t.Fatalf("index %d holds %v before its removal, want %v", j[mark+k], got, ivs[k])
		}
		j.rollback(&tl, mark+k)
		if err := tl.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if want := []Interval{keep, {Start: 8, End: 9}}; !slices.Equal(tl.Busy(), want) {
		t.Fatalf("rollback left %+v, want %+v", tl.Busy(), want)
	}
	if len(j) != mark {
		t.Fatalf("journal position %d after rollback to %d", len(j), mark)
	}
}

func TestJournalUndoIsLIFO(t *testing.T) {
	var tl Timeline
	var j journal
	j.reserve(t, &tl, Interval{Start: 2, End: 3})
	j.reserve(t, &tl, Interval{Start: 0, End: 1})
	j.rollback(&tl, len(j)-1) // must remove [0,1), the most recent reservation
	busy := tl.Busy()
	if len(busy) != 1 || busy[0].Start != 2 {
		t.Fatalf("undo removed the wrong interval: %+v", busy)
	}
}

// TestZeroLengthReserveNotJournaled checks that a zero-length Reserve
// returns index −1, so the caller journals nothing and a rollback past it
// removes only real reservations.
func TestZeroLengthReserveNotJournaled(t *testing.T) {
	var tl Timeline
	var j journal
	j.reserve(t, &tl, Interval{Start: 0, End: 1})
	mark := len(j)
	if i := j.reserve(t, &tl, Interval{Start: 5, End: 5}); i != -1 {
		t.Fatalf("zero-length reservation got index %d, want -1", i)
	}
	if len(j) != mark {
		t.Fatal("zero-length reservation was journaled")
	}
	j.reserve(t, &tl, Interval{Start: 2, End: 3})
	j.rollback(&tl, mark)
	if want := []Interval{{Start: 0, End: 1}}; !slices.Equal(tl.Busy(), want) {
		t.Fatalf("rollback left %+v, want %+v", tl.Busy(), want)
	}
}
