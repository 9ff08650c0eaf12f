package sim

// The flat discrete-event engine. The semantics — and, event for event, the
// arbitration order — are those of the original map-based engine; the golden
// tests (testdata/golden/sim_*.json at the repository root) pin the results
// bit for bit. Three rules of that engine shape this implementation:
//
//  1. Every event runs the dispatcher, which starts CPU work first (procs in
//     ascending id order, picking the instLess-minimum eligible instance)
//     and then grants pending transfers greedily in commLess order.
//  2. Synchronous-mode cycle gates are evaluated at the first dispatcher
//     pass that sees them (CPU gates only while the processor is idle).
//     Every gate is a whole cycle c, open from c·Δ on, so gated work parks
//     in the slot of its cycle in a ring (cal), and one evWake per cycle
//     serves everything parked there (gate). This is byte-identical to the
//     original once-per-instance wake pushes because a duplicate wake at
//     the same time is a pure no-op dispatcher pass: the first dispatch at
//     time t opens every cycle with c·Δ <= t, and dropping a push only
//     shifts later event sequence numbers uniformly, which preserves the
//     relative order of all remaining events.
//  3. Instances are materialized lazily (first touch), which the crash
//     handler observes: only already-created instances fail eagerly.
//
// Instead of rescanning every queue per event, the engine keeps per-proc
// ready heaps and a dirty-processor bitset, one pending-transfer list per
// (sender, receiver) processor pair feeding a per-event candidate list, and
// the ring of cycle slots — each event touches only state it could have
// changed, and the full-rescan behaviour is reproduced exactly (see
// dispatch and collectFreed).

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"streamsched/internal/bitset"
	"streamsched/internal/dag"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
	"streamsched/internal/trace"
)

// Instance states. The zero value means "not yet created" so a freshly
// cleared ring slot needs no further initialization.
const (
	stAbsent uint8 = iota
	stPending
	stQueued
	stRunning
	stDone
	stFailed
)

// Transfer states. cFree slots are on the free list.
const (
	cFree uint8 = iota
	cPending
	cGranted
	cCancelled
)

// Event kinds. Item injections and the failure are virtual events (see
// loop): they are fully determined up front, so they never enter the heap.
const (
	evExec uint8 = iota
	evComm
	evWake
)

// event is a timed simulator event (32 bytes, stored by value in the heap).
// seq is 64-bit: tie-breaking must never wrap, however long the run.
type event struct {
	time float64
	seq  int64
	kind uint8
	a    int32 // replica index (evExec) or transfer index (evComm)
	item int32
}

// simLink is one static replica-to-replica communication of the schedule.
type simLink struct {
	srcRep, dstRep int32
	// predSlot is the template pred-counter slot of the destination this
	// link feeds (absolute index into predInit).
	predSlot int32
	// rank orders pending transfers globally: ascending static source
	// finish, then source replica, then destination replica — the commLess
	// order of the original engine including its stable-sort tie-break.
	rank uint32
	// dur is the transfer duration; colocated links deliver instantly.
	dur       float64
	colocated bool
}

// xfer is the dynamic state of one in-flight or pending transfer.
type xfer struct {
	link int32
	item int32
	// gate is the cycle the transfer may move in (synchronous mode); 0 in
	// dataflow mode, where cycle 0 has opened before any transfer exists.
	gate int32
	// prev and next thread the transfer through its (sender, receiver)
	// pair list while listed; -1 ends the list.
	prev, next int32
	state      uint8
	// listed is set exactly while the transfer is on its pair list: pending
	// and not parked in a cycle slot.
	listed bool
}

type instRef struct{ item, rep int32 }

// cycleSlot is what one synchronous cycle opens: the instances that become
// ready and the transfers that re-enter arbitration. armed is set while the
// cycle's one evWake is pushed and the cycle has not opened, and exactly
// then refs and cis hold lists taken from the engine's free lists.
type cycleSlot struct {
	refs  []instRef
	cis   []int32
	armed bool
}

// Engine simulates one schedule. It is built once per schedule with
// NewEngine and reused across Run calls: the static tables are shared and
// the dynamic state buffers are recycled, so steady-state simulation does
// not allocate. An Engine is not safe for concurrent use.
type Engine struct {
	s      *schedule.Schedule
	m      int // processors
	nrep   int // replicas = tasks·(ε+1)
	epsP1  int
	period float64

	// Static per-replica tables, indexed by rep = task·(ε+1)+copy.
	repProc  []int32
	repExec  []float64 // execution duration on the mapped processor
	repStart []float64 // static start time (dispatch priority key)

	// Pred-counter template: replica r owns slots predOff[r]..predOff[r+1],
	// one per predecessor task, with predInit incoming-comm counts.
	predOff  []int32
	predInit []int32
	npred    int

	// Out-links grouped by source replica, destinations ascending.
	linkOff []int32
	links   []simLink

	entryReps []int32
	exitTasks []dag.TaskID
	exitIdx   []int32 // [task] → dense exit index, -1 for interior tasks
	nExit     int

	// stage[rep] is the pipeline stage σ of the replica.
	stage []int32

	// --- Dynamic state, reset per Run ---

	cfg  Config
	now  float64
	seq  int64
	poll int

	events     []event // 4-ary min-heap by (time, seq)
	nextInject int
	failAt     float64
	failTodo   bool
	failScan   bool

	// Item ring: instance (item, rep) lives at slot (item & ringMask)·nrep +
	// rep. A slot is recycled at injection time once every instance of its
	// previous item is terminal and no transfer references it (live == 0);
	// the ring doubles in the rare case an item outlives the window.
	ringMask int32
	itemOf   []int32 // [pos] item occupying the slot, -1 when free
	live     []int32 // [pos] non-terminal instances + in-flight transfers
	st       []uint8 // [pos·nrep + rep]
	outst    []int32 // [pos·npred + slot] inputs that may still arrive
	arrived  []int32 // [pos·npred + slot] valid inputs received

	deadFrom []float64 // +Inf = never fails

	cpuBusy  []bool
	ready    [][]instRef // per-proc binary heap by instLess
	gatedNew [][]instRef // per-proc queued instances awaiting their gate check
	dirty    bitset.Set  // processor worklist

	// The in-flight transfer on each port, -1 while the port is free.
	sendActive, recvActive []int32

	// Synchronous gating. Cycle c opens at c·Δ, and cal[c & calMask] holds
	// what it opens; cycle is the first cycle not yet opened. The ring never
	// wraps onto a pending cycle. A stage-σ instance of item k computes no
	// earlier than cycle k+2(σ−1) ≤ k+2(S−1); it is queued no earlier than
	// its injection at kΔ, so when it parks cycle ≥ k+1 and its gate is at
	// most 2S−3 cycles ahead. A transfer's gate is the cycle right after its
	// source's gated start, which has opened, so it parks in the first
	// unopened cycle. At most 2S−2 cycles are therefore ever pending, fewer
	// than len(cal), the smallest power of two ≥ 2S. No gate lies past cycle
	// Items+2S−2, so cycles from Items+len(cal) on hold nothing and are
	// never opened: a run opens a bounded number of cycles, however far its
	// clock runs past its last gate. Opened slots return their lists to
	// freeRefs and freeCIs.
	cal      []cycleSlot
	calMask  int
	cycle    int
	freeRefs [][]instRef
	freeCIs  [][]int32

	// Listed transfers (pending, not parked in a cycle slot), one list per
	// (sender, receiver) processor pair threaded through xfer.prev/next:
	// pairHead[u·m+v] heads pair (u, v)'s list, -1 when empty. Set u of
	// sendPairs holds v, and set v of recvPairs holds u, exactly while that
	// list is non-empty.
	pairHead             []int32
	sendPairs, recvPairs *bitset.Span

	comms      []xfer
	freeComms  []int32
	candidates []int32  // transfers the current event could have changed
	candKeys   []uint64 // commKey cache scratch for the candidate sort

	wakes int64 // evWake events pushed (the wakes/op bench metric)

	exitDone []float64 // [item·nExit + exit] completion time, -1 unrecorded
	exitCnt  []int32   // [item] exits recorded
	compBuf  []float64 // scratch for result()

	spans []trace.Span
}

// Schedule returns the schedule this engine simulates.
func (e *Engine) Schedule() *schedule.Schedule { return e.s }

// NewEngine derives the static simulation tables from a complete schedule.
func NewEngine(s *schedule.Schedule) (*Engine, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("sim: schedule incomplete")
	}
	m := s.P.NumProcs()
	epsP1 := s.Eps + 1
	nrep := s.G.NumTasks() * epsP1
	e := &Engine{
		s:        s,
		m:        m,
		nrep:     nrep,
		epsP1:    epsP1,
		period:   s.Period,
		repProc:  make([]int32, nrep),
		repExec:  make([]float64, nrep),
		repStart: make([]float64, nrep),
		predOff:  make([]int32, nrep+1),
		linkOff:  make([]int32, nrep+1),
	}
	repFinish := make([]float64, nrep)
	for t := 0; t < s.G.NumTasks(); t++ {
		for c := 0; c < epsP1; c++ {
			rep := t*epsP1 + c
			r := s.Replica(schedule.Ref{Task: dag.TaskID(t), Copy: c})
			e.repProc[rep] = int32(r.Proc)
			e.repExec[rep] = s.P.ExecTime(s.G.Task(dag.TaskID(t)).Work, r.Proc)
			e.repStart[rep] = r.Start
			repFinish[rep] = r.Finish
		}
	}

	// Pred-counter slots and raw links, walking destinations in replica
	// order so each source's out-links come out destination-ascending (the
	// original engine's deterministic out-link order).
	type slotKey struct {
		task dag.TaskID
		n    int32
	}
	perSrc := make([][]simLink, nrep)
	var slots []slotKey
	for t := 0; t < s.G.NumTasks(); t++ {
		for c := 0; c < epsP1; c++ {
			dstRep := t*epsP1 + c
			e.predOff[dstRep] = int32(len(e.predInit))
			r := s.Replica(schedule.Ref{Task: dag.TaskID(t), Copy: c})
			slots = slots[:0]
			for _, in := range r.In {
				k := -1
				for i := range slots {
					if slots[i].task == in.From.Task {
						k = i
						break
					}
				}
				if k < 0 {
					k = len(slots)
					slots = append(slots, slotKey{task: in.From.Task})
				}
				slots[k].n++
				srcRep := int(in.From.Task)*epsP1 + in.From.Copy
				srcProc := e.repProc[srcRep]
				l := simLink{
					srcRep:    int32(srcRep),
					dstRep:    int32(dstRep),
					predSlot:  int32(len(e.predInit) + k),
					colocated: srcProc == e.repProc[dstRep] || in.Volume == 0,
				}
				if !l.colocated {
					l.dur = s.P.CommTime(in.Volume, platform.ProcID(srcProc), r.Proc)
				}
				perSrc[srcRep] = append(perSrc[srcRep], l)
			}
			for _, sl := range slots {
				e.predInit = append(e.predInit, sl.n)
			}
		}
	}
	e.predOff[nrep] = int32(len(e.predInit))
	e.npred = len(e.predInit)
	for rep := 0; rep < nrep; rep++ {
		e.linkOff[rep] = int32(len(e.links))
		e.links = append(e.links, perSrc[rep]...)
	}
	e.linkOff[nrep] = int32(len(e.links))

	// Global transfer arbitration ranks: the original commLess (item, static
	// source finish, source task, source copy) plus the stable-sort
	// tie-break (destination order within one source).
	order := make([]int32, len(e.links))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := e.links[order[a]], e.links[order[b]]
		if fa, fb := repFinish[la.srcRep], repFinish[lb.srcRep]; fa != fb {
			return fa < fb
		}
		if la.srcRep != lb.srcRep {
			return la.srcRep < lb.srcRep
		}
		return la.dstRep < lb.dstRep
	})
	for rank, li := range order {
		e.links[li].rank = uint32(rank)
	}

	for _, t := range s.G.Entries() {
		for c := 0; c < epsP1; c++ {
			e.entryReps = append(e.entryReps, int32(int(t)*epsP1+c))
		}
	}
	e.exitTasks = s.G.Exits()
	e.exitIdx = make([]int32, s.G.NumTasks())
	for i := range e.exitIdx {
		e.exitIdx[i] = -1
	}
	for i, t := range e.exitTasks {
		e.exitIdx[t] = int32(i)
	}
	e.nExit = len(e.exitTasks)

	// Dynamic state shells.
	e.deadFrom = make([]float64, m)
	e.cpuBusy = make([]bool, m)
	e.ready = make([][]instRef, m)
	e.gatedNew = make([][]instRef, m)
	e.dirty = bitset.New(m)
	e.sendActive = make([]int32, m)
	e.recvActive = make([]int32, m)
	e.pairHead = make([]int32, m*m)
	e.sendPairs = bitset.NewSpan(m, m)
	e.recvPairs = bitset.NewSpan(m, m)

	stages := 0
	e.stage = make([]int32, nrep)
	for i, st := range s.StageNumbers() {
		e.stage[i] = int32(st)
		stages = max(stages, st)
	}
	w := 1
	for w < 2*stages {
		w *= 2
	}
	e.cal = make([]cycleSlot, w)
	e.calMask = w - 1

	// Item ring sized for the steady-state window: a delivered item is live
	// for about its latency, bounded by (2S−1)·Δ ≈ 2S periods.
	w = 4
	for w < 2*stages+8 {
		w *= 2
	}
	e.sizeRing(w)
	return e, nil
}

func (e *Engine) sizeRing(w int) {
	e.ringMask = int32(w - 1)
	e.itemOf = make([]int32, w)
	e.live = make([]int32, w)
	e.st = make([]uint8, w*e.nrep)
	e.outst = make([]int32, w*e.npred)
	e.arrived = make([]int32, w*e.npred)
	for i := range e.itemOf {
		e.itemOf[i] = -1
	}
}

// growRing doubles the item window, repositioning live items. Doubling keeps
// distinct live items collision-free (their low ring bits already differ).
func (e *Engine) growRing() {
	oldW := int(e.ringMask) + 1
	oldItem, oldLive, oldSt := e.itemOf, e.live, e.st
	oldOut, oldArr := e.outst, e.arrived
	e.sizeRing(2 * oldW)
	for pos, it := range oldItem {
		if it < 0 {
			continue
		}
		np := int(it) & int(e.ringMask)
		e.itemOf[np] = it
		e.live[np] = oldLive[pos]
		copy(e.st[np*e.nrep:(np+1)*e.nrep], oldSt[pos*e.nrep:(pos+1)*e.nrep])
		copy(e.outst[np*e.npred:(np+1)*e.npred], oldOut[pos*e.npred:(pos+1)*e.npred])
		copy(e.arrived[np*e.npred:(np+1)*e.npred], oldArr[pos*e.npred:(pos+1)*e.npred])
	}
}

// Run simulates the schedule under cfg. Items ≤ 0 takes DefaultConfig's
// item count, and then its warm-up too if Warmup ≤ 0; every other field is
// kept. A cancelled ctx aborts the event loop with ctx.Err(). Buffers are
// recycled across calls; the returned Result owns its slices.
func (e *Engine) Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Items <= 0 {
		def := DefaultConfig(e.s)
		cfg.Items = def.Items
		if cfg.Warmup <= 0 {
			cfg.Warmup = def.Warmup
		}
	}
	if cfg.Warmup >= cfg.Items {
		cfg.Warmup = cfg.Items / 2
	}
	e.reset(cfg)
	if err := e.loop(ctx); err != nil {
		return nil, err
	}
	return e.result(), nil
}

func (e *Engine) reset(cfg Config) {
	e.cfg = cfg
	e.now = 0
	e.seq = 0
	e.poll = 0
	e.events = e.events[:0]
	e.nextInject = 0
	e.failAt = cfg.Failures.At
	e.failTodo = len(cfg.Failures.Procs) > 0
	e.failScan = false
	for u := 0; u < e.m; u++ {
		e.deadFrom[u] = math.Inf(1)
		e.cpuBusy[u] = false
		e.ready[u] = e.ready[u][:0]
		e.gatedNew[u] = e.gatedNew[u][:0]
		e.sendActive[u] = -1
		e.recvActive[u] = -1
		e.sendPairs.At(u).Clear()
		e.recvPairs.At(u).Clear()
	}
	e.dirty.Clear()
	// A cancelled run leaves transfers listed and work parked: forget them
	// all.
	for i := range e.pairHead {
		e.pairHead[i] = -1
	}
	for i := range e.cal {
		e.disarm(&e.cal[i])
	}
	e.cycle = 0
	e.comms = e.comms[:0]
	e.freeComms = e.freeComms[:0]
	e.candidates = e.candidates[:0]
	e.wakes = 0
	for i := range e.itemOf {
		e.itemOf[i] = -1
		e.live[i] = 0
	}
	for i := range e.st {
		e.st[i] = stAbsent
	}
	if n := cfg.Items * e.nExit; cap(e.exitDone) < n {
		e.exitDone = make([]float64, n)
	} else {
		e.exitDone = e.exitDone[:n]
	}
	for i := range e.exitDone {
		e.exitDone[i] = -1
	}
	if cap(e.exitCnt) < cfg.Items {
		e.exitCnt = make([]int32, cfg.Items)
	} else {
		e.exitCnt = e.exitCnt[:cfg.Items]
	}
	for i := range e.exitCnt {
		e.exitCnt[i] = 0
	}
	e.spans = nil
}

// loop drains the event queue. Item injections (one per item, at k·Δ) and
// the failure are "virtual" events: their times are known up front, so they
// are merged by time here instead of occupying the heap. Ties replicate the
// original push order: injections first, then the failure, then runtime
// events in sequence order.
func (e *Engine) loop(ctx context.Context) error {
	// Poll cancellation every 1024 events: cheap enough to keep the hot
	// loop unaffected, frequent enough to abort long runs promptly.
	const pollMask = 1024 - 1
	for {
		if e.poll&pollMask == pollMask {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		e.poll++
		sel := -1
		var t float64
		if e.nextInject < e.cfg.Items {
			t = float64(e.nextInject) * e.period
			sel = 0
		}
		if e.failTodo && (sel < 0 || e.failAt < t) {
			t = e.failAt
			sel = 1
		}
		if len(e.events) > 0 && (sel < 0 || e.events[0].time < t) {
			t = e.events[0].time
			sel = 2
		}
		if sel < 0 {
			return nil
		}
		e.now = t
		switch sel {
		case 0:
			item := e.nextInject
			e.nextInject++
			e.inject(int32(item))
		case 1:
			e.failTodo = false
			e.failProcs()
		case 2:
			// An evWake has no handler: the dispatch below opens its cycle.
			ev := e.popEvent()
			switch ev.kind {
			case evExec:
				e.execComplete(ev.item, ev.a)
			case evComm:
				e.commComplete(ev.a)
			}
		}
		e.dispatch()
	}
}

// --- event heap (4-ary, value-typed) ---

func evLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (e *Engine) pushEvent(t float64, kind uint8, a, item int32) {
	e.seq++
	e.events = append(e.events, event{time: t, seq: e.seq, kind: kind, a: a, item: item})
	i := len(e.events) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !evLess(e.events[i], e.events[p]) {
			break
		}
		e.events[i], e.events[p] = e.events[p], e.events[i]
		i = p
	}
}

func (e *Engine) popEvent() event {
	top := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events = e.events[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if evLess(e.events[j], e.events[m]) {
				m = j
			}
		}
		if !evLess(e.events[m], e.events[i]) {
			break
		}
		e.events[i], e.events[m] = e.events[m], e.events[i]
		i = m
	}
	return top
}

// --- instance ring ---

func (e *Engine) pos(item int32) int { return int(item & e.ringMask) }
func (e *Engine) instIdx(item, rep int32) int {
	return e.pos(item)*e.nrep + int(rep)
}

func (e *Engine) dead(u int32) bool { return e.now >= e.deadFrom[u] }

// claimSlot recycles (or grows past) the ring slot for a new item.
func (e *Engine) claimSlot(item int32) {
	for {
		p := e.pos(item)
		if e.itemOf[p] < 0 {
			e.itemOf[p] = item
			return
		}
		if e.live[p] == 0 {
			base := p * e.nrep
			for i := base; i < base+e.nrep; i++ {
				e.st[i] = stAbsent
			}
			e.itemOf[p] = item
			return
		}
		e.growRing()
	}
}

// instFor materializes the instance on first touch: pred counters are
// copied from the template and the item's liveness count grows.
func (e *Engine) instFor(item, rep int32) {
	i := e.instIdx(item, rep)
	if e.st[i] != stAbsent {
		return
	}
	e.st[i] = stPending
	p := e.pos(item)
	base := p * e.npred
	for s := e.predOff[rep]; s < e.predOff[rep+1]; s++ {
		e.outst[base+int(s)] = e.predInit[s]
		e.arrived[base+int(s)] = 0
	}
	e.live[p]++
}

// --- handlers ---

func (e *Engine) inject(item int32) {
	e.claimSlot(item)
	for _, rep := range e.entryReps {
		e.instFor(item, rep)
		e.tryEnqueue(item, rep)
	}
}

// tryEnqueue moves a pending instance to its processor's ready structures
// when its inputs are complete, or fails it when they can never be.
func (e *Engine) tryEnqueue(item, rep int32) {
	i := e.instIdx(item, rep)
	if e.st[i] != stPending {
		return
	}
	u := e.repProc[rep]
	if e.dead(u) {
		e.failInstance(item, rep)
		return
	}
	base := e.pos(item) * e.npred
	waiting := false
	for s := e.predOff[rep]; s < e.predOff[rep+1]; s++ {
		n := e.outst[base+int(s)]
		if n == 0 && e.arrived[base+int(s)] == 0 {
			e.failInstance(item, rep)
			return
		}
		if n > 0 {
			waiting = true
		}
	}
	if waiting {
		return
	}
	e.st[i] = stQueued
	ref := instRef{item: item, rep: rep}
	if e.cfg.Synchronous {
		// Cycle gating is evaluated by the dispatcher (while the processor
		// is idle), like the original queue scan.
		e.gatedNew[u] = append(e.gatedNew[u], ref)
	} else {
		e.readyPush(u, ref)
	}
	e.markDirty(u)
}

// failInstance marks an instance invalid and cascades to its consumers.
func (e *Engine) failInstance(item, rep int32) {
	i := e.instIdx(item, rep)
	if s := e.st[i]; s == stFailed || s == stDone {
		return
	}
	e.st[i] = stFailed
	e.live[e.pos(item)]--
	for li := e.linkOff[rep]; li < e.linkOff[rep+1]; li++ {
		e.settle(item, &e.links[li], false)
	}
}

// settle resolves one input of link l's consumer instance for item: it
// arrived, or it never will. The consumer is materialized first; one that
// is no longer pending has been resolved already and ignores the input.
func (e *Engine) settle(item int32, l *simLink, arrived bool) {
	e.instFor(item, l.dstRep)
	if e.st[e.instIdx(item, l.dstRep)] != stPending {
		return
	}
	slot := e.pos(item)*e.npred + int(l.predSlot)
	e.outst[slot]--
	if arrived {
		e.arrived[slot]++
	}
	e.tryEnqueue(item, l.dstRep)
}

func (e *Engine) execComplete(item, rep int32) {
	i := e.instIdx(item, rep)
	if e.st[i] != stRunning {
		return
	}
	u := e.repProc[rep]
	if e.dead(u) {
		// The failure event already handled this instance.
		return
	}
	e.st[i] = stDone
	e.live[e.pos(item)]--
	e.cpuBusy[u] = false
	e.markDirty(u)
	task := dag.TaskID(int(rep) / e.epsP1)
	if int(item) < e.cfg.TraceItems {
		copyIdx := int(rep) % e.epsP1
		dur := e.repExec[rep]
		e.spans = append(e.spans, trace.Span{
			Name:  fmt.Sprintf("%s(%d)#%d", e.s.G.Task(task).Name, copyIdx+1, item),
			Lane:  fmt.Sprintf("P%d", u+1),
			Start: e.now - dur,
			End:   e.now,
			Args:  map[string]any{"item": int(item), "task": int(task), "copy": copyIdx},
		})
	}

	// Record exit completions.
	if x := e.exitIdx[task]; x >= 0 {
		di := int(item)*e.nExit + int(x)
		if e.exitDone[di] < 0 {
			e.exitDone[di] = e.now
			e.exitCnt[item]++
		}
	}

	// Emit outputs. A co-located input arrives at once; settling it fails
	// a consumer on a dead processor, as the transfer path below does.
	for li := e.linkOff[rep]; li < e.linkOff[rep+1]; li++ {
		l := &e.links[li]
		if l.colocated {
			e.settle(item, l, true)
			continue
		}
		e.instFor(item, l.dstRep)
		di := e.instIdx(item, l.dstRep)
		if e.st[di] != stPending {
			continue
		}
		v := e.repProc[l.dstRep]
		if e.dead(v) {
			e.failInstance(item, l.dstRep)
			continue
		}
		ci := e.allocComm()
		c := &e.comms[ci]
		*c = xfer{link: li, item: item, state: cPending}
		if e.cfg.Synchronous {
			// Cross-stage transfers wait for the communication cycle
			// following the source's compute cycle.
			c.gate = item + 2*e.stage[rep] - 1
		}
		e.live[e.pos(item)]++
		e.listComm(ci)
		if e.sendActive[u] < 0 && e.recvActive[v] < 0 {
			e.candidates = append(e.candidates, ci)
		}
	}
}

func (e *Engine) commComplete(ci int32) {
	c := &e.comms[ci]
	if c.state == cCancelled {
		// The failure event already unwound this transfer; reclaim the slot
		// now that its completion event has drained.
		c.state = cFree
		e.freeComms = append(e.freeComms, ci)
		return
	}
	l := &e.links[c.link]
	src, dst := e.repProc[l.srcRep], e.repProc[l.dstRep]
	e.sendActive[src] = -1
	e.recvActive[dst] = -1
	item := c.item
	if int(item) < e.cfg.TraceItems {
		srcRef := schedule.Ref{Task: dag.TaskID(int(l.srcRep) / e.epsP1), Copy: int(l.srcRep) % e.epsP1}
		name := fmt.Sprintf("%v→t%d#%d", srcRef, int(l.dstRep)/e.epsP1, item)
		args := map[string]any{"item": int(item)}
		e.spans = append(e.spans,
			trace.Span{Name: name, Lane: fmt.Sprintf("P%d:send", src+1), Start: e.now - l.dur, End: e.now, Args: args},
			trace.Span{Name: name, Lane: fmt.Sprintf("P%d:recv", dst+1), Start: e.now - l.dur, End: e.now, Args: args})
	}
	e.settle(item, l, true)
	e.live[e.pos(item)]--
	c.state = cFree
	e.freeComms = append(e.freeComms, ci)
	// The freed ports are what this event changed: the listed transfers
	// they unblock are the dispatch candidates.
	e.collectFreed(src, dst)
}

// collectFreed appends to the candidate list every listed transfer that
// freeing u's send port and v's receive port can unblock: the lists of the
// pairs (u, w) whose receive port w is free and of the pairs (w, v) whose
// send port w is free. Ports only go free→busy inside one dispatch pass, so
// a transfer whose other port is busy right now cannot be granted (or newly
// gated) this pass; it becomes a candidate when that port's own completion
// frees it. Transfers parked in a cycle slot are not listed: opening the
// cycle re-lists them at exactly their gate time.
//
//streamsched:hotpath
func (e *Engine) collectFreed(u, v int32) {
	for wi, word := range e.sendPairs.At(int(u)) {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if w := wi*64 + b; e.recvActive[w] < 0 {
				e.collectPair(int(u)*e.m + w)
			}
		}
	}
	for wi, word := range e.recvPairs.At(int(v)) {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			// Pair (u, v) was collected above: v's receive port is free.
			if w := wi*64 + b; w != int(u) && e.sendActive[w] < 0 {
				e.collectPair(w*e.m + int(v))
			}
		}
	}
}

// collectPair appends one pair list to the candidate list.
//
//streamsched:hotpath
func (e *Engine) collectPair(pair int) {
	for ci := e.pairHead[pair]; ci >= 0; ci = e.comms[ci].next {
		e.candidates = append(e.candidates, ci)
	}
}

// listComm puts a pending transfer at the head of its pair list.
//
//streamsched:hotpath
func (e *Engine) listComm(ci int32) {
	c := &e.comms[ci]
	l := &e.links[c.link]
	u, v := e.repProc[l.srcRep], e.repProc[l.dstRep]
	head := &e.pairHead[int(u)*e.m+int(v)]
	c.prev, c.next, c.listed = -1, *head, true
	if *head >= 0 {
		e.comms[*head].prev = ci
	} else {
		e.sendPairs.At(int(u)).Add(int(v))
		e.recvPairs.At(int(v)).Add(int(u))
	}
	*head = ci
}

// unlistComm takes a transfer off its pair list; unlisted ones are left as
// they are.
//
//streamsched:hotpath
func (e *Engine) unlistComm(ci int32) {
	c := &e.comms[ci]
	if !c.listed {
		return
	}
	c.listed = false
	if c.next >= 0 {
		e.comms[c.next].prev = c.prev
	}
	if c.prev >= 0 {
		e.comms[c.prev].next = c.next
		return
	}
	l := &e.links[c.link]
	u, v := e.repProc[l.srcRep], e.repProc[l.dstRep]
	e.pairHead[int(u)*e.m+int(v)] = c.next
	if c.next < 0 {
		e.sendPairs.At(int(u)).Remove(int(v))
		e.recvPairs.At(int(v)).Remove(int(u))
	}
}

// failProcs applies the failure spec at the current time.
func (e *Engine) failProcs() {
	for _, u := range e.cfg.Failures.Procs {
		e.deadFrom[u] = e.now
	}
	for _, u := range e.cfg.Failures.Procs {
		// In-flight computation on u is lost (the instance is failed below).
		e.cpuBusy[u] = false
		// Kill in-flight transfers touching u and free the peer's port.
		for _, ci := range [2]int32{e.sendActive[u], e.recvActive[u]} {
			if ci < 0 {
				continue
			}
			c := &e.comms[ci]
			if c.state != cGranted {
				continue
			}
			c.state = cCancelled
			l := &e.links[c.link]
			e.sendActive[e.repProc[l.srcRep]] = -1
			e.recvActive[e.repProc[l.dstRep]] = -1
			e.settle(c.item, l, false)
			e.live[e.pos(c.item)]--
		}
		// Fail every created instance bound to u, oldest item first (the
		// deterministic cascade order); lazily created ones fail in
		// tryEnqueue via the dead check.
		for _, item := range e.liveItemsAsc() {
			base := e.pos(item) * e.nrep
			for rep := 0; rep < e.nrep; rep++ {
				if e.repProc[rep] != int32(u) {
					continue
				}
				if s := e.st[base+rep]; s == stPending || s == stQueued || s == stRunning {
					e.failInstance(item, int32(rep))
				}
			}
		}
		// Parked instances of u were failed above; opening their cycle
		// skips them.
		e.ready[u] = e.ready[u][:0]
		e.gatedNew[u] = e.gatedNew[u][:0]
	}
	// The original engine rescanned everything after a failure: every
	// pending transfer becomes a candidate (dead ones are dropped in
	// arbitration order) and every processor is rechecked.
	e.failScan = true
	for u := 0; u < e.m; u++ {
		e.dirty.Add(u)
	}
}

// liveItemsAsc returns the items currently occupying ring slots, ascending.
func (e *Engine) liveItemsAsc() []int32 {
	items := make([]int32, 0, len(e.itemOf))
	for _, it := range e.itemOf {
		if it >= 0 {
			items = append(items, it)
		}
	}
	slices.Sort(items)
	return items
}

// --- dispatch ---

func (e *Engine) markDirty(u int32) { e.dirty.Add(int(u)) }

// dispatch starts any work the current event could have enabled: it opens
// every cycle that has begun, then starts CPU executions on dirty
// processors, then grants pending transfers from the candidate list, in the
// original engine's arbitration order.
//
//streamsched:hotpath
func (e *Engine) dispatch() {
	for e.cycle < e.cfg.Items+len(e.cal) && float64(e.cycle)*e.period <= e.now {
		e.openCycle()
	}
	for w := range e.dirty {
		for e.dirty[w] != 0 {
			b := bits.TrailingZeros64(e.dirty[w])
			e.dirty[w] &^= 1 << uint(b)
			e.cpuDispatch(int32(w*64 + b))
		}
	}
	if e.failScan {
		e.failScan = false
		e.candidates = e.candidates[:0]
		for ci := range e.comms {
			if e.comms[ci].state == cPending {
				e.candidates = append(e.candidates, int32(ci))
			}
		}
	}
	if len(e.candidates) > 0 {
		e.commDispatch()
	}
}

// openCycle opens cycle e.cycle. Its instances join their processors' ready
// heaps, and those processors turn dirty; a processor that has died since
// they parked is skipped, because failProcs failed them. A busy processor's
// heap may take them early: it is a total order that only an idle dispatch
// reads, so they start exactly when they would have. Its transfers re-enter
// arbitration. A slot can name a transfer slot that the failure scan
// dropped and allocComm recycled, so only a pending transfer that is not
// listed yet goes back on its pair list; every pending one is a candidate.
//
//streamsched:hotpath
func (e *Engine) openCycle() {
	s := &e.cal[e.cycle&e.calMask]
	e.cycle++
	if !s.armed {
		return
	}
	for _, ref := range s.refs {
		if u := e.repProc[ref.rep]; !e.dead(u) {
			e.readyPush(u, ref)
			e.markDirty(u)
		}
	}
	for _, ci := range s.cis {
		c := &e.comms[ci]
		if c.state != cPending {
			continue
		}
		if !c.listed {
			e.listComm(ci)
		}
		e.candidates = append(e.candidates, ci)
	}
	e.disarm(s)
}

// gate returns the slot of cycle c, which has not opened, for parking gated
// work. The first gate of a cycle arms it: it takes the slot's lists and
// pushes the cycle's one evWake.
//
//streamsched:hotpath
func (e *Engine) gate(c int32) *cycleSlot {
	s := &e.cal[int(c)&e.calMask]
	if !s.armed {
		s.armed = true
		s.refs, s.cis = take(&e.freeRefs), take(&e.freeCIs)
		e.wakes++
		e.pushEvent(float64(c)*e.period, evWake, 0, 0)
	}
	return s
}

// disarm empties an armed slot, returning its lists to the free lists.
func (e *Engine) disarm(s *cycleSlot) {
	if !s.armed {
		return
	}
	s.armed = false
	e.freeRefs = append(e.freeRefs, s.refs[:0])
	e.freeCIs = append(e.freeCIs, s.cis[:0])
	s.refs, s.cis = nil, nil
}

// take pops a recycled list, or makes one.
func take[T any](free *[][]T) []T {
	if n := len(*free); n > 0 {
		l := (*free)[n-1]
		*free = (*free)[:n-1]
		return l
	}
	return make([]T, 0, 4)
}

// cpuDispatch replicates one processor's slice of the original CPU scan:
// newly queued synchronous instances meet their gate (idle processors only,
// append order), then the instLess-minimum ready instance starts.
//
//streamsched:hotpath
func (e *Engine) cpuDispatch(u int32) {
	if e.cpuBusy[u] || e.dead(u) {
		return
	}
	for _, ref := range e.gatedNew[u] {
		// A stage-σ instance of item k computes from cycle k+2(σ−1) on.
		if c := ref.item + 2*(e.stage[ref.rep]-1); int(c) >= e.cycle {
			s := e.gate(c)
			s.refs = append(s.refs, ref)
		} else {
			e.readyPush(u, ref)
		}
	}
	e.gatedNew[u] = e.gatedNew[u][:0]
	if len(e.ready[u]) == 0 {
		return
	}
	ref := e.readyPop(u)
	e.st[e.instIdx(ref.item, ref.rep)] = stRunning
	e.cpuBusy[u] = true
	e.pushEvent(e.now+e.repExec[ref.rep], evExec, ref.rep, ref.item)
}

// Wakes reports how many evWake events the last Run pushed — the wakes/op
// bench metric guarding against event-count regressions.
func (e *Engine) Wakes() int64 { return e.wakes }

// Events reports how many events the last Run pushed onto the event heap
// (executions, transfers and wakes; injections and the failure are virtual)
// — the events/op bench metric, which moves only when arbitration does.
func (e *Engine) Events() int64 { return e.seq }

// commKey is the arbitration order of pending transfers.
func (e *Engine) commKey(ci int32) uint64 {
	c := &e.comms[ci]
	return uint64(uint32(c.item))<<32 | uint64(e.links[c.link].rank)
}

// commDispatch processes the candidate transfers in global arbitration
// order: dead endpoints drop (cascading), transfers whose cycle has not
// opened park in its slot, free port pairs grant greedily. Duplicate
// candidates are harmless — a resolved transfer is skipped, a blocked one
// re-checks idempotently.
//
//streamsched:hotpath
func (e *Engine) commDispatch() {
	cs := e.candidates
	ks := e.candKeys[:0]
	for _, ci := range cs { // cache keys: the sort compares each one many times
		ks = append(ks, e.commKey(ci))
	}
	for i := 1; i < len(cs); i++ { // insertion sort: candidate lists are tiny
		k, ci := ks[i], cs[i]
		j := i - 1
		for j >= 0 && ks[j] > k {
			cs[j+1], ks[j+1] = cs[j], ks[j]
			j--
		}
		cs[j+1], ks[j+1] = ci, k
	}
	e.candKeys = ks[:0]
	for _, ci := range cs {
		c := &e.comms[ci]
		if c.state != cPending {
			continue
		}
		l := &e.links[c.link]
		src, dst := e.repProc[l.srcRep], e.repProc[l.dstRep]
		item := c.item
		if e.dead(dst) {
			e.instFor(item, l.dstRep)
			e.failInstance(item, l.dstRep)
			e.dropComm(ci)
			continue
		}
		if e.dead(src) {
			// Lost transfer: the consumer will not get this input.
			e.settle(item, l, false)
			e.dropComm(ci)
			continue
		}
		if int(c.gate) >= e.cycle {
			if c.listed { // not parked yet
				e.unlistComm(ci)
				s := e.gate(c.gate)
				s.cis = append(s.cis, ci)
			}
			continue
		}
		if e.sendActive[src] < 0 && e.recvActive[dst] < 0 {
			e.unlistComm(ci)
			e.sendActive[src] = ci
			e.recvActive[dst] = ci
			c.state = cGranted
			e.pushEvent(e.now+l.dur, evComm, ci, item)
		}
	}
	e.candidates = e.candidates[:0]
}

func (e *Engine) allocComm() int32 {
	if n := len(e.freeComms); n > 0 {
		ci := e.freeComms[n-1]
		e.freeComms = e.freeComms[:n-1]
		return ci
	}
	e.comms = append(e.comms, xfer{})
	return int32(len(e.comms) - 1)
}

// dropComm resolves a pending transfer that will never be granted.
func (e *Engine) dropComm(ci int32) {
	e.unlistComm(ci)
	c := &e.comms[ci]
	e.live[e.pos(c.item)]--
	c.state = cFree
	e.freeComms = append(e.freeComms, ci)
}

// --- small value heaps ---

func (e *Engine) readyLess(a, b instRef) bool {
	if a.item != b.item {
		return a.item < b.item
	}
	if sa, sb := e.repStart[a.rep], e.repStart[b.rep]; sa != sb {
		return sa < sb
	}
	return a.rep < b.rep // replica index order == (task, copy) order
}

func (e *Engine) readyPush(u int32, ref instRef) {
	h := append(e.ready[u], ref)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.readyLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.ready[u] = h
}

func (e *Engine) readyPop(u int32) instRef {
	h := e.ready[u]
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && e.readyLess(h[c+1], h[c]) {
			c++
		}
		if !e.readyLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.ready[u] = h
	return top
}

// --- measurement ---

func (e *Engine) result() *Result {
	res := &Result{Items: e.cfg.Items, Trace: e.spans}
	completions := e.compBuf[:0]
	for k := 0; k < e.cfg.Items; k++ {
		if int(e.exitCnt[k]) != e.nExit {
			continue // undelivered
		}
		res.Delivered++
		latest := 0.0
		for x := 0; x < e.nExit; x++ {
			if t := e.exitDone[k*e.nExit+x]; t > latest {
				latest = t
			}
		}
		if k >= e.cfg.Warmup {
			res.Latencies = append(res.Latencies, latest-float64(k)*e.period)
			completions = append(completions, latest)
		}
	}
	e.compBuf = completions[:0]
	if len(res.Latencies) == 0 {
		res.MeanLatency = math.NaN()
		res.MaxLatency = math.NaN()
		res.AchievedPeriod = math.NaN()
		return res
	}
	sum, max := 0.0, 0.0
	for _, l := range res.Latencies {
		sum += l
		if l > max {
			max = l
		}
	}
	res.MeanLatency = sum / float64(len(res.Latencies))
	res.MaxLatency = max
	if len(completions) > 1 {
		res.AchievedPeriod = (completions[len(completions)-1] - completions[0]) / float64(len(completions)-1)
	} else {
		res.AchievedPeriod = math.NaN()
	}
	return res
}
