// Package oneport implements the bi-directional one-port communication model
// with full computation/communication overlap (§2 of the paper, after Bhat
// et al.): at any instant a processor may execute one task, send one message
// and receive one message — the three in parallel — but never two sends or
// two receives concurrently. With a fully interconnected platform the send
// and receive ports are therefore the only shared communication resources,
// so transfers reserve a common window on the sender's send-port timeline
// and the receiver's receive-port timeline.
//
// State is transactional rather than copy-based: the System keeps one
// journal recording, for every reservation, the timeline it hit and the
// index it was inserted at. Transfer and Compute reserve directly on the
// timelines and journal the reservation; a Mark captures the system at a
// point in time as a single integer, and Rollback(mark) rewinds in
// O(reservations undone). The schedulers' trial placements ("simulate the
// mapping of each task in the subset on all processors", Algorithm 4.1)
// bracket their reservations with Mark … Rollback: a trial sees committed
// state and its own reservations, and leaves no trace. Marks must unwind
// LIFO (DESIGN.md §7, "Transactional timelines").
//
// Because a system is single-goroutine during a construction, readers of
// Comp/Send/Recv observe a trial's tentative reservations until it rolls
// back; query committed state only between trials.
package oneport

import (
	"fmt"

	"streamsched/internal/platform"
	"streamsched/internal/timeline"
)

// opKind identifies which of a processor's three timelines a journaled
// reservation hit.
type opKind uint32

const (
	opComp opKind = iota
	opSend
	opRecv
)

// opRec is one journaled reservation: kind<<24 | proc names the timeline,
// and idx is the index Reserve inserted at, which RemoveAt withdraws.
type opRec struct {
	at  uint32
	idx int32
}

func (o opRec) kind() opKind          { return opKind(o.at >> 24) }
func (o opRec) proc() platform.ProcID { return platform.ProcID(o.at & 0xffffff) }

// Mark is a rollback point: the system journal position at Mark() time.
type Mark int

// System tracks per-processor compute, send-port and receive-port timelines
// over one schedule construction. It is not safe for concurrent use.
type System struct {
	plat *platform.Platform
	// tls holds the timelines, indexed by opKind and then by processor.
	tls [3][]timeline.Timeline

	// ops is the journal: every reservation in order, so Rollback knows
	// which timeline to undo and where.
	ops []opRec
}

// NewSystem returns an empty System for the platform.
func NewSystem(p *platform.Platform) *System {
	s := &System{plat: p}
	for k := range s.tls {
		s.tls[k] = make([]timeline.Timeline, p.NumProcs())
	}
	return s
}

// Platform returns the underlying platform.
func (s *System) Platform() *platform.Platform { return s.plat }

// Comp returns processor u's compute timeline (read-only use).
func (s *System) Comp(u platform.ProcID) *timeline.Timeline { return &s.tls[opComp][u] }

// Send returns processor u's send-port timeline (read-only use).
func (s *System) Send(u platform.ProcID) *timeline.Timeline { return &s.tls[opSend][u] }

// Recv returns processor u's receive-port timeline (read-only use).
func (s *System) Recv(u platform.ProcID) *timeline.Timeline { return &s.tls[opRecv][u] }

// Horizon returns the latest busy time across all timelines.
func (s *System) Horizon() float64 {
	h := 0.0
	for k := range s.tls {
		for u := range s.tls[k] {
			if hz := s.tls[k][u].Horizon(); hz > h {
				h = hz
			}
		}
	}
	return h
}

// Mark returns the current rollback point. The mark stays valid until a
// Rollback past it; marks must unwind LIFO.
func (s *System) Mark() Mark { return Mark(len(s.ops)) }

// Rollback undoes every reservation made since the mark, most recent
// first, in O(reservations undone). Trial placements unwind this way, and
// so do the mapper's transactions (mapper.State.Try), which roll whole
// tasks back. Marks must unwind LIFO; a mark past the journal (already
// rolled back, or used out of order) panics rather than silently
// resurrecting undone journal entries.
//
//streamsched:hotpath
func (s *System) Rollback(m Mark) {
	if m < 0 || int(m) > len(s.ops) {
		panic("oneport: rollback to a mark past the journal (non-LIFO mark use)")
	}
	for i := len(s.ops) - 1; i >= int(m); i-- {
		rec := s.ops[i]
		s.tls[rec.kind()][rec.proc()].RemoveAt(int(rec.idx))
	}
	s.ops = s.ops[:m]
}

// reserve books iv on processor u's timeline of kind k and journals where
// it landed. A zero-length interval reserves and journals nothing.
func (s *System) reserve(k opKind, u platform.ProcID, iv timeline.Interval) {
	if i := s.tls[k][u].MustReserve(iv); i >= 0 {
		s.ops = append(s.ops, opRec{at: uint32(k)<<24 | uint32(u), idx: int32(i)})
	}
}

// CommonGap returns the earliest start s ≥ ready such that [s, s+dur) is
// simultaneously free on from's send port and to's receive port — the
// placement primitive for one-port transfers.
func (s *System) CommonGap(from, to platform.ProcID, ready, dur float64) float64 {
	return timeline.EarliestCommonGap(ready, dur, &s.tls[opSend][from], &s.tls[opRecv][to])
}

// Transfer reserves the earliest window for moving vol data units from
// processor `from` to processor `to`, no earlier than ready. It returns the
// window; zero-duration transfers (same processor or zero volume) return
// (ready, ready) and reserve nothing.
func (s *System) Transfer(from, to platform.ProcID, vol, ready float64) (start, finish float64) {
	if from == to || vol == 0 {
		return ready, ready
	}
	return s.TransferDur(from, to, s.plat.CommTime(vol, from, to), ready)
}

// TransferDur is Transfer with the transfer duration already priced — the
// schedulers compute each candidate's communication terms once for the
// condition-(1) feasibility test and reuse them here instead of paying a
// second CommTime per source. A zero dur reserves nothing.
func (s *System) TransferDur(from, to platform.ProcID, dur, ready float64) (start, finish float64) {
	if dur == 0 {
		return ready, ready
	}
	start = s.CommonGap(from, to, ready, dur)
	iv := timeline.Interval{Start: start, End: start + dur}
	s.reserve(opSend, from, iv)
	s.reserve(opRecv, to, iv)
	return start, start + dur
}

// Compute reserves the earliest slot on processor u for a task of the given
// work, no earlier than ready, and returns the slot.
func (s *System) Compute(u platform.ProcID, work, ready float64) (start, finish float64) {
	dur := s.plat.ExecTime(work, u)
	start = s.tls[opComp][u].EarliestGap(ready, dur)
	s.reserve(opComp, u, timeline.Interval{Start: start, End: start + dur})
	return start, start + dur
}

// Validate re-checks every timeline invariant; tests call it after schedule
// construction.
func (s *System) Validate() error {
	names := [3]string{"comp", "send", "recv"}
	for u := range s.tls[opComp] {
		for k := range s.tls {
			if err := s.tls[k][u].Validate(); err != nil {
				return fmt.Errorf("oneport: proc %d %s: %w", u, names[k], err)
			}
		}
	}
	return nil
}
