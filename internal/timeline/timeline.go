// Package timeline implements busy-interval timelines for contention-aware
// scheduling. A Timeline records disjoint, sorted busy intervals on one
// resource (a processor's compute unit, a send port, a receive port). The
// schedulers place work with an insertion-based policy: a reservation may
// fill any gap large enough, not only the region after the last interval.
//
// Queries (EarliestGap, EarliestCommonGap) never mutate. Reservations can
// be transactional: a journaled timeline (EnableJournal) records an undo
// entry per Reserve, and Rollback(mark) rewinds in O(changes) — the
// schedulers' trial placements and retry ladders reserve directly and roll
// back instead of working on deep copies (DESIGN.md §7, "Transactional
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
//
// A timeline can additionally keep a journal (EnableJournal): every Reserve
// then appends an undo record, and Rollback(mark) rewinds to an earlier
// Mark in O(changes) — the transactional primitive the schedulers' trial
// and retry machinery is built on. Journaled or not, a timeline maintains a
// mutation sequence number (Seq) and a one-entry availability-head memo:
// the placement loops re-ask EarliestGap with identical arguments many
// times between mutations (candidate sweeps, the EarliestCommonGap
// convergence pass), and the memo answers those repeats without walking the
// busy list.
type Timeline struct {
	busy []Interval

	// journal records one undo entry per Reserve while journaling is
	// enabled; seqSrc is the owner's shared mutation counter (nil when the
	// timeline is not journaled).
	journal []undoRec
	seqSrc  *uint64
	// seq identifies the current contents: it takes a fresh value from
	// seqSrc (or a local increment) on every mutation, and Rollback restores
	// the value recorded before each undone mutation. Because counter values
	// are never reissued and a restored value always accompanies the exact
	// contents it was assigned for, (timeline, seq) pairs identify timeline
	// contents even across rollbacks — which is what lets availability
	// caches survive trial transactions.
	seq uint64

	// One-entry availability-head memo for EarliestGap, valid while seq is
	// unchanged.
	memoReady, memoDur, memoStart float64
	memoSeq                       uint64
	memoOK                        bool
}

// undoRec reverses one Reserve: the interval sits at idx, and prevSeq was
// the sequence number before the insertion.
type undoRec struct {
	prevSeq uint64
	idx     int32
}

// EnableJournal turns on undo journaling, drawing mutation sequence numbers
// from the shared counter seqSrc (one counter per owning system keeps the
// numbers unique across its timelines without atomics). It must be called
// before any reservation; enabling a journal mid-life would leave earlier
// mutations unrecoverable.
func (tl *Timeline) EnableJournal(seqSrc *uint64) {
	if len(tl.busy) != 0 {
		panic("timeline: EnableJournal on a non-empty timeline")
	}
	tl.seqSrc = seqSrc
}

// Seq returns the mutation sequence number identifying the current
// contents. Caches keyed on (timeline, Seq) stay valid across rollbacks:
// Rollback restores the number alongside the contents it was assigned for.
func (tl *Timeline) Seq() uint64 { return tl.seq }

// bump assigns a fresh sequence number after a mutation.
func (tl *Timeline) bump() {
	if tl.seqSrc != nil {
		*tl.seqSrc++
		tl.seq = *tl.seqSrc
	} else {
		tl.seq++
	}
}

// Mark returns the current journal position for a later Rollback.
func (tl *Timeline) Mark() int { return len(tl.journal) }

// Rollback undoes every journaled reservation made since mark, most recent
// first, in O(changes). Marks must be rolled back LIFO; a mark past the
// journal panics rather than silently resurrecting undone entries.
//
//streamsched:hotpath
func (tl *Timeline) Rollback(mark int) {
	if mark < 0 || mark > len(tl.journal) {
		panic("timeline: rollback to a mark past the journal (non-LIFO mark use)")
	}
	for k := len(tl.journal) - 1; k >= mark; k-- {
		rec := tl.journal[k]
		tl.busy = slices.Delete(tl.busy, int(rec.idx), int(rec.idx)+1)
		tl.seq = rec.prevSeq
	}
	tl.journal = tl.journal[:mark]
}

// Undo reverses the most recent journaled reservation.
func (tl *Timeline) Undo() { tl.Rollback(len(tl.journal) - 1) }

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

// Reset removes all reservations and journal history.
func (tl *Timeline) Reset() {
	tl.busy = tl.busy[:0]
	tl.journal = tl.journal[:0]
	tl.bump()
}

// eps absorbs floating-point jitter when comparing interval endpoints:
// a gap is accepted if it is at least (duration - eps) long.
const eps = 1e-9

// EarliestGap returns the earliest start time s ≥ ready such that
// [s, s+dur) does not overlap any busy interval. A zero dur fits anywhere
// at or after ready. dur must be non-negative.
func (tl *Timeline) EarliestGap(ready, dur float64) float64 {
	if dur < 0 {
		panic(fmt.Sprintf("timeline: negative duration %v", dur))
	}
	// Availability-head memo: identical queries repeat between mutations —
	// the EarliestCommonGap fixpoint re-verifies its answer, and candidate
	// sweeps re-ask the same (ready, dur) per processor pass.
	if tl.memoOK && tl.memoSeq == tl.seq && tl.memoReady == ready && tl.memoDur == dur {
		return tl.memoStart
	}
	s := ready
	// Locate the first busy interval that could constrain s.
	i := sort.Search(len(tl.busy), func(k int) bool { return tl.busy[k].End > s })
	for ; i < len(tl.busy); i++ {
		iv := tl.busy[i]
		if iv.Start-s >= dur-eps {
			break // fits in the gap before iv
		}
		if iv.End > s {
			s = iv.End
		}
	}
	tl.memoOK, tl.memoSeq = true, tl.seq
	tl.memoReady, tl.memoDur, tl.memoStart = ready, dur, s
	return s
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

// Reserve inserts a busy interval. It returns an error if the interval
// overlaps an existing reservation or has negative length. Zero-length
// intervals are accepted and ignored.
//
//streamsched:hotpath
func (tl *Timeline) Reserve(iv Interval) error {
	if iv.End < iv.Start {
		return errInvalidInterval(iv)
	}
	if iv.Len() == 0 {
		return nil
	}
	i := sort.Search(len(tl.busy), func(k int) bool { return tl.busy[k].Start >= iv.Start })
	// Check neighbours for overlap, tolerating eps-sized numerical overlap.
	if i > 0 && tl.busy[i-1].End > iv.Start+eps {
		return errOverlap(iv, tl.busy[i-1])
	}
	if i < len(tl.busy) && tl.busy[i].Start < iv.End-eps {
		return errOverlap(iv, tl.busy[i])
	}
	if tl.seqSrc != nil {
		tl.journal = append(tl.journal, undoRec{prevSeq: tl.seq, idx: int32(i)})
	}
	tl.busy = slices.Insert(tl.busy, i, iv)
	tl.bump()
	return nil
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
func (tl *Timeline) MustReserve(iv Interval) {
	if err := tl.Reserve(iv); err != nil {
		panic(err)
	}
}

// EarliestCommonGap returns the earliest s ≥ ready such that [s, s+dur) is
// simultaneously free on every timeline in tls. This is the placement
// primitive for one-port transfers, which occupy the sender's send port and
// the receiver's receive port over the same window.
func EarliestCommonGap(ready, dur float64, tls ...*Timeline) float64 {
	if dur < 0 {
		panic(fmt.Sprintf("timeline: negative duration %v", dur))
	}
	s := ready
	for iter := 0; ; iter++ {
		moved := false
		for _, tl := range tls {
			ns := tl.EarliestGap(s, dur)
			if ns > s {
				s = ns
				moved = true
			}
		}
		if !moved {
			return s
		}
		// Each pass either terminates or advances s past the end of some
		// busy interval, so the loop is bounded by the total interval count.
		if iter > 1<<20 {
			panic("timeline: EarliestCommonGap failed to converge")
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
