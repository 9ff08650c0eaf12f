// Package oneport implements the bi-directional one-port communication model
// with full computation/communication overlap (§2 of the paper, after Bhat
// et al.): at any instant a processor may execute one task, send one message
// and receive one message — the three in parallel — but never two sends or
// two receives concurrently. With a fully interconnected platform the send
// and receive ports are therefore the only shared communication resources,
// so transfers reserve a common window on the sender's send-port timeline
// and the receiver's receive-port timeline.
//
// State is transactional rather than copy-based: every timeline is
// journaled, a Mark captures the system at a point in time as a single
// integer, and Rollback(mark) rewinds in O(reservations undone). The Txn
// type wraps a mark for the schedulers' trial placements ("simulate the
// mapping of each task in the subset on all processors", Algorithm 4.1):
// a transaction reserves directly on the committed timelines — seeing both
// committed state and its own reservations — and either Commits (keeps
// them) or Aborts (pops them off the journal). Transactions and marks must
// unwind LIFO. The former design cloned every touched timeline per trial
// and deep-copied all 3m timelines per retry snapshot; the journal replaces
// both (DESIGN.md §7, "Transactional timelines").
//
// Because a system is single-goroutine during a construction, readers of
// Comp/Send/Recv observe a live transaction's tentative reservations until
// it resolves; query committed state only between transactions.
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

// opRec packs (kind, processor) of one journaled reservation.
type opRec uint32

func op(k opKind, u platform.ProcID) opRec { return opRec(uint32(k)<<24 | uint32(u)) }

func (o opRec) kind() opKind          { return opKind(o >> 24) }
func (o opRec) proc() platform.ProcID { return platform.ProcID(o & 0xffffff) }

// Mark is a rollback point: the system journal position at Mark() time.
type Mark int

// gapEntry memoizes one CommonGap query against a (send, recv) port pair,
// validated by the ports' mutation sequence numbers.
type gapEntry struct {
	ready, dur, start float64
	sendSeq, recvSeq  uint64
	valid             bool
}

// System tracks per-processor compute, send-port and receive-port timelines
// over one schedule construction. It is not safe for concurrent use.
type System struct {
	plat *platform.Platform
	comp []*timeline.Timeline
	send []*timeline.Timeline
	recv []*timeline.Timeline

	// seq is the shared mutation counter all timelines draw their sequence
	// numbers from; ops is the system-wide journal recording which timeline
	// each reservation hit, in order, so Rollback knows where to undo.
	seq uint64
	ops []opRec
	// live counts open transactions. While a transaction is live the
	// committed timelines carry tentative reservations, so the gap cache
	// skips stores (lookups stay sound: entries are validated by sequence
	// numbers, and tentative mutations always move them).
	live int
	// genCtr numbers every transaction ever begun; openGen is the
	// generation of the innermost open one (0 = none). Together they catch
	// stale Txn copies and non-LIFO use — see Txn.checkOpen.
	genCtr, openGen uint64

	// gapCache memoizes CommonGap per (receiver, sender) port pair. Entries
	// are invalidated only by commits touching the pair's ports: an aborted
	// trial restores the sequence numbers it bumped, so the cache survives
	// the candidate sweeps between commits.
	gapCache []gapEntry
}

// NewSystem returns an empty System for the platform.
func NewSystem(p *platform.Platform) *System {
	m := p.NumProcs()
	s := &System{
		plat:     p,
		comp:     make([]*timeline.Timeline, m),
		send:     make([]*timeline.Timeline, m),
		recv:     make([]*timeline.Timeline, m),
		gapCache: make([]gapEntry, m*m),
	}
	for u := 0; u < m; u++ {
		s.comp[u] = &timeline.Timeline{}
		s.send[u] = &timeline.Timeline{}
		s.recv[u] = &timeline.Timeline{}
		s.comp[u].EnableJournal(&s.seq)
		s.send[u].EnableJournal(&s.seq)
		s.recv[u].EnableJournal(&s.seq)
	}
	return s
}

// Platform returns the underlying platform.
func (s *System) Platform() *platform.Platform { return s.plat }

// Comp returns processor u's compute timeline (read-only use).
func (s *System) Comp(u platform.ProcID) *timeline.Timeline { return s.comp[u] }

// Send returns processor u's send-port timeline (read-only use).
func (s *System) Send(u platform.ProcID) *timeline.Timeline { return s.send[u] }

// Recv returns processor u's receive-port timeline (read-only use).
func (s *System) Recv(u platform.ProcID) *timeline.Timeline { return s.recv[u] }

// Horizon returns the latest busy time across all timelines.
func (s *System) Horizon() float64 {
	h := 0.0
	for u := range s.comp {
		for _, tl := range []*timeline.Timeline{s.comp[u], s.send[u], s.recv[u]} {
			if hz := tl.Horizon(); hz > h {
				h = hz
			}
		}
	}
	return h
}

// Mark returns the current rollback point. The mark stays valid until a
// Rollback past it; marks must unwind LIFO.
func (s *System) Mark() Mark { return Mark(len(s.ops)) }

// Rollback undoes every reservation made since the mark — committed or not
// — most recent first, in O(reservations undone). The reverse-mode retry
// ladder rolls whole tasks back this way. Marks must unwind LIFO; a mark
// past the journal (already rolled back, or used out of order) panics
// rather than silently resurrecting undone journal entries.
//
//streamsched:hotpath
func (s *System) Rollback(m Mark) {
	if m < 0 || int(m) > len(s.ops) {
		panic("oneport: rollback to a mark past the journal (non-LIFO mark use)")
	}
	for i := len(s.ops) - 1; i >= int(m); i-- {
		rec := s.ops[i]
		u := rec.proc()
		switch rec.kind() {
		case opComp:
			s.comp[u].Undo()
		case opSend:
			s.send[u].Undo()
		default:
			s.recv[u].Undo()
		}
	}
	s.ops = s.ops[:m]
}

// CommonGap returns the earliest start s ≥ ready such that [s, s+dur) is
// simultaneously free on from's send port and to's receive port — the
// placement primitive for one-port transfers, and the quantity the head
// selection re-derives for every (pool candidate × processor) pair. Results
// are memoized per port pair and invalidated only when a commit touches the
// pair's ports.
func (s *System) CommonGap(from, to platform.ProcID, ready, dur float64) float64 {
	st, rt := s.send[from], s.recv[to]
	e := &s.gapCache[int(to)*len(s.send)+int(from)]
	if e.valid && e.sendSeq == st.Seq() && e.recvSeq == rt.Seq() &&
		e.ready == ready && e.dur == dur {
		return e.start
	}
	start := timeline.EarliestCommonGap(ready, dur, st, rt)
	if s.live == 0 {
		*e = gapEntry{ready: ready, dur: dur, start: start,
			sendSeq: st.Seq(), recvSeq: rt.Seq(), valid: true}
	}
	return start
}

// Txn is a transaction over the system: a rollback mark plus the operations
// performed since. Reservations land directly on the committed timelines,
// so a transaction sees committed state and its own reservations; Commit
// keeps them, Abort pops them off the journal in O(changes). Transactions
// must resolve LIFO and the system is single-goroutine, so at most one
// chain of nested transactions is live at a time — only the innermost open
// transaction may operate or resolve. A Txn must not be copied: each use is
// checked against the system's open-transaction generation, so a stale copy
// (whose original already resolved) panics instead of silently rolling back
// another transaction's work.
type Txn struct {
	sys      *System
	mark     Mark
	gen, par uint64 // this txn's generation and its parent's (0 = none)
	done     bool
}

// Begin opens a transaction at the current journal position.
func (s *System) Begin() Txn {
	s.live++
	s.genCtr++
	t := Txn{sys: s, mark: s.Mark(), gen: s.genCtr, par: s.openGen}
	s.openGen = t.gen
	return t
}

// Transfer reserves the earliest window for moving vol data units from
// processor `from` to processor `to`, no earlier than ready. It returns the
// window; zero-duration transfers (same processor or zero volume) return
// (ready, ready) and reserve nothing.
func (t *Txn) Transfer(from, to platform.ProcID, vol, ready float64) (start, finish float64) {
	if from == to || vol == 0 {
		t.checkOpen()
		return ready, ready
	}
	return t.TransferDur(from, to, t.sys.plat.CommTime(vol, from, to), ready)
}

// TransferDur is Transfer with the transfer duration already priced — the
// schedulers compute each candidate's communication terms once for the
// condition-(1) feasibility test and reuse them here instead of paying a
// second CommTime per source. A zero dur reserves nothing.
func (t *Txn) TransferDur(from, to platform.ProcID, dur, ready float64) (start, finish float64) {
	t.checkOpen()
	if dur == 0 {
		return ready, ready
	}
	s := t.sys
	start = s.CommonGap(from, to, ready, dur)
	iv := timeline.Interval{Start: start, End: start + dur}
	s.send[from].MustReserve(iv)
	s.ops = append(s.ops, op(opSend, from))
	s.recv[to].MustReserve(iv)
	s.ops = append(s.ops, op(opRecv, to))
	return start, start + dur
}

// Compute reserves the earliest slot on processor u for a task of the given
// work, no earlier than ready, and returns the slot.
func (t *Txn) Compute(u platform.ProcID, work, ready float64) (start, finish float64) {
	t.checkOpen()
	s := t.sys
	dur := s.plat.ExecTime(work, u)
	tl := s.comp[u]
	start = tl.EarliestGap(ready, dur)
	if dur != 0 {
		tl.MustReserve(timeline.Interval{Start: start, End: start + dur})
		s.ops = append(s.ops, op(opComp, u))
	}
	return start, start + dur
}

// Commit keeps the transaction's reservations. The transaction cannot be
// used afterwards.
func (t *Txn) Commit() {
	t.checkOpen()
	t.done = true
	t.sys.live--
	t.sys.openGen = t.par
}

// Abort rolls the transaction's reservations back off the journal. Safe to
// call on a committed transaction (no-op) so callers can defer it.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.checkOpen()
	t.sys.Rollback(t.mark)
	t.done = true
	t.sys.live--
	t.sys.openGen = t.par
}

// checkOpen panics unless t is the innermost open transaction: finished
// transactions, stale copies of resolved ones, and out-of-LIFO use (an
// outer transaction operating while an inner one is live) are all bugs
// that would otherwise corrupt the shared journal silently.
func (t *Txn) checkOpen() {
	if t.done {
		panic("oneport: use of finished transaction")
	}
	if t.sys.openGen != t.gen {
		panic("oneport: transaction is not the innermost open one (stale copy or non-LIFO use)")
	}
}

// Validate re-checks every timeline invariant; tests call it after schedule
// construction.
func (s *System) Validate() error {
	names := [3]string{"comp", "send", "recv"}
	for u := range s.comp {
		for i, tl := range [3]*timeline.Timeline{s.comp[u], s.send[u], s.recv[u]} {
			if err := tl.Validate(); err != nil {
				return fmt.Errorf("oneport: proc %d %s: %w", u, names[i], err)
			}
		}
	}
	return nil
}
