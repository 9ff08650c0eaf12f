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
//     Gate openings are batched: instances bucket per (cycle, processor)
//     and transfers per opening time, and one evWake per distinct future
//     time serves every bucket that shares it (scheduleWake). This is
//     byte-identical to the original once-per-instance wake pushes because
//     a duplicate wake at the same time is a pure no-op dispatcher pass:
//     the first dispatch at time t drains every gate with at <= t, and
//     dropping a push only shifts later event sequence numbers uniformly,
//     which preserves the relative order of all remaining events.
//  3. Instances are materialized lazily (first touch), which the crash
//     handler observes: only already-created instances fail eagerly.
//
// Instead of rescanning every queue per event, the engine keeps per-proc
// ready heaps and a dirty-processor bitset, one pending-transfer list per
// (sender, receiver) processor pair feeding a per-event candidate list, and
// gate heaps that open by time — each event touches only state it could have
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
	link     int32
	item     int32
	earliest float64 // synchronous-mode cycle gate; 0 in dataflow mode
	// prev and next thread the transfer through its (sender, receiver)
	// pair list while listed; -1 ends the list.
	prev, next int32
	state      uint8
	// listed is set exactly while the transfer is on its pair list: pending
	// and not parked in a gate bucket.
	listed bool
}

type instRef struct{ item, rep int32 }

// gateBucket collects every instance of one processor whose cycle gate opens
// at the same time: one timed mark and one (shared) wake event open them all.
type gateBucket struct {
	at   float64
	refs []instRef
}

// commBucket is the transfer-side analogue: all gated transfers opening at
// the same time re-enter arbitration together.
type commBucket struct {
	at  float64
	cis []int32
}

type timedIdx struct {
	at float64
	ix int32
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

	// stage[rep] is the pipeline stage (synchronous mode), built lazily.
	stage      []int32
	haveStages bool

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
	ready    [][]instRef    // per-proc binary heap by instLess
	gatedNew [][]instRef    // per-proc unwoken gated instances, append order
	gated    [][]gateBucket // per-proc min-heap of (cycle, proc) buckets
	dirty    []uint64       // processor worklist bitset
	cpuGates []timedIdx     // min-heap: one (gate, proc) mark per bucket
	freeRefs [][]instRef    // recycled gateBucket ref slices

	sendBusy, recvBusy     []bool
	sendActive, recvActive []int32 // in-flight transfer per port, -1 free

	// Listed transfers (pending, not parked in a gate bucket), one list per
	// (sender, receiver) processor pair threaded through xfer.prev/next:
	// pairHead[u·m+v] heads pair (u, v)'s list, -1 when empty. Set u of
	// sendPairs holds v, and set v of recvPairs holds u, exactly while that
	// list is non-empty.
	pairHead             []int32
	sendPairs, recvPairs *bitset.Span

	comms      []xfer
	freeComms  []int32
	commGated  []commBucket // min-heap of per-opening-time transfer buckets
	freeCIs    [][]int32    // recycled commBucket index slices
	candidates []int32      // transfers the current event could have changed
	candKeys   []uint64     // commKey cache scratch for the candidate sort

	// wakePending holds the distinct future times an evWake is armed for;
	// wakes counts the events actually pushed (the wakes/op bench metric).
	wakePending []timedIdx
	wakes       int64

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
	e.gated = make([][]gateBucket, m)
	e.dirty = make([]uint64, (m+63)/64)
	e.sendBusy = make([]bool, m)
	e.recvBusy = make([]bool, m)
	e.sendActive = make([]int32, m)
	e.recvActive = make([]int32, m)
	e.pairHead = make([]int32, m*m)
	e.sendPairs = bitset.NewSpan(m, m)
	e.recvPairs = bitset.NewSpan(m, m)

	// Ring sized for the steady-state window: a delivered item is live for
	// about its latency, bounded by (2S−1)·Δ ≈ 2S periods.
	w := 4
	for w < 2*s.Stages()+8 {
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

// Run simulates the schedule under cfg. A cancelled ctx aborts the event
// loop with ctx.Err(). Buffers are recycled across calls; the returned
// Result owns its slices.
func (e *Engine) Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Items <= 0 {
		cfg = DefaultConfig(e.s)
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
		e.dropGateBuckets(int32(u))
		e.sendBusy[u] = false
		e.recvBusy[u] = false
		e.sendActive[u] = -1
		e.recvActive[u] = -1
		e.sendPairs.At(u).Clear()
		e.recvPairs.At(u).Clear()
	}
	for i := range e.dirty {
		e.dirty[i] = 0
	}
	// A cancelled run leaves transfers listed: forget them all.
	for i := range e.pairHead {
		e.pairHead[i] = -1
	}
	e.comms = e.comms[:0]
	e.freeComms = e.freeComms[:0]
	for i := range e.commGated {
		e.freeCIs = append(e.freeCIs, e.commGated[i].cis[:0])
	}
	e.commGated = e.commGated[:0]
	e.cpuGates = e.cpuGates[:0]
	e.candidates = e.candidates[:0]
	e.wakePending = e.wakePending[:0]
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
	if cfg.Synchronous && !e.haveStages {
		e.stage = make([]int32, e.nrep)
		// Each map key writes one distinct slice index, so visit order
		// cannot affect the result.
		//nolint:determcheck // order-independent scatter into e.stage
		for ref, st := range e.s.StageNumbers() {
			e.stage[int(ref.Task)*e.epsP1+ref.Copy] = int32(st)
		}
		e.haveStages = true
	}
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
			ev := e.popEvent()
			switch ev.kind {
			case evExec:
				e.execComplete(ev.item, ev.a)
			case evComm:
				e.commComplete(ev.a)
			case evWake:
				// dispatch below is the whole effect; retire the armed time
				// so a later bucket at the same instant can re-arm.
				if len(e.wakePending) > 0 && e.wakePending[0].at <= e.now {
					heapPopTimed(&e.wakePending)
				}
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
		l := &e.links[li]
		e.instFor(item, l.dstRep)
		di := e.instIdx(item, l.dstRep)
		if e.st[di] != stPending {
			continue
		}
		e.outst[e.pos(item)*e.npred+int(l.predSlot)]--
		e.tryEnqueue(item, l.dstRep)
	}
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

	// Emit outputs.
	for li := e.linkOff[rep]; li < e.linkOff[rep+1]; li++ {
		l := &e.links[li]
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
		if l.colocated {
			slot := e.pos(item)*e.npred + int(l.predSlot)
			e.outst[slot]--
			e.arrived[slot]++
			e.tryEnqueue(item, l.dstRep)
			continue
		}
		ci := e.allocComm()
		c := &e.comms[ci]
		*c = xfer{link: li, item: item, state: cPending}
		if e.cfg.Synchronous {
			// Cross-stage transfers wait for the communication cycle
			// following the source's compute cycle.
			c.earliest = float64(int(item)+2*int(e.stage[rep])-1) * e.period
		}
		e.live[e.pos(item)]++
		e.listComm(ci)
		if !e.sendBusy[u] && !e.recvBusy[v] {
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
	e.sendBusy[src] = false
	e.recvBusy[dst] = false
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
	e.instFor(item, l.dstRep)
	di := e.instIdx(item, l.dstRep)
	if e.st[di] == stPending {
		slot := e.pos(item)*e.npred + int(l.predSlot)
		e.outst[slot]--
		e.arrived[slot]++
		e.tryEnqueue(item, l.dstRep)
	}
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
// frees it. Transfers parked in a gate bucket are not listed: the opening
// bucket re-lists them at exactly their gate time.
//
//streamsched:hotpath
func (e *Engine) collectFreed(u, v int32) {
	for wi, word := range e.sendPairs.At(int(u)) {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if w := wi*64 + b; !e.recvBusy[w] {
				e.collectPair(int(u)*e.m + w)
			}
		}
	}
	for wi, word := range e.recvPairs.At(int(v)) {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			// Pair (u, v) was collected above: v's receive port is free.
			if w := wi*64 + b; w != int(u) && !e.sendBusy[w] {
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
			src, dst := e.repProc[l.srcRep], e.repProc[l.dstRep]
			e.sendBusy[src] = false
			e.recvBusy[dst] = false
			e.sendActive[src] = -1
			e.recvActive[dst] = -1
			e.instFor(c.item, l.dstRep)
			di := e.instIdx(c.item, l.dstRep)
			if e.st[di] == stPending {
				e.outst[e.pos(c.item)*e.npred+int(l.predSlot)]--
				e.tryEnqueue(c.item, l.dstRep)
			}
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
		e.ready[u] = e.ready[u][:0]
		e.gatedNew[u] = e.gatedNew[u][:0]
		e.dropGateBuckets(int32(u))
	}
	// The original engine rescanned everything after a failure: every
	// pending transfer becomes a candidate (dead ones are dropped in
	// arbitration order) and every processor is rechecked.
	e.failScan = true
	for i := range e.dirty {
		e.dirty[i] = ^uint64(0)
	}
	if spare := e.m & 63; spare != 0 && len(e.dirty) > 0 {
		e.dirty[len(e.dirty)-1] = (1 << spare) - 1
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

func (e *Engine) markDirty(u int32) { e.dirty[u>>6] |= 1 << (uint(u) & 63) }

// dispatch starts any work the current event could have enabled: CPU
// executions on dirty processors, then pending transfers from the candidate
// list, in the original engine's arbitration order.
//
//streamsched:hotpath
func (e *Engine) dispatch() {
	// Cycle gates that opened by now make their processor dirty.
	for len(e.cpuGates) > 0 && e.cpuGates[0].at <= e.now {
		e.markDirty(heapPopTimed(&e.cpuGates).ix)
	}
	for w := range e.dirty {
		for e.dirty[w] != 0 {
			b := bits.TrailingZeros64(e.dirty[w])
			e.dirty[w] &^= 1 << uint(b)
			e.cpuDispatch(int32(w*64 + b))
		}
	}
	// Transfer gates that opened by now re-enter arbitration, one bucket of
	// transfers per opening time. A bucket can name a slot that the failure
	// scan dropped and allocComm recycled, so only a pending transfer that
	// is not listed yet goes back on its pair list; every pending one is a
	// candidate.
	for len(e.commGated) > 0 && e.commGated[0].at <= e.now {
		b := heapPopTimed(&e.commGated)
		for _, ci := range b.cis {
			c := &e.comms[ci]
			if c.state != cPending {
				continue
			}
			if !c.listed {
				e.listComm(ci)
			}
			e.candidates = append(e.candidates, ci)
		}
		e.freeCIs = append(e.freeCIs, b.cis[:0])
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

// cpuDispatch replicates one processor's slice of the original CPU scan:
// wake-ups for newly gated instances (idle processors only, append order),
// gate openings, then the instLess-minimum ready instance starts.
//
//streamsched:hotpath
func (e *Engine) cpuDispatch(u int32) {
	if e.cpuBusy[u] || e.dead(u) {
		return
	}
	if e.cfg.Synchronous {
		if len(e.ready[u])+len(e.gatedNew[u])+len(e.gated[u]) == 0 {
			return
		}
		for _, ref := range e.gatedNew[u] {
			if gate := e.cycleGate(ref); gate > e.now {
				e.gateCPU(u, gate, ref)
			} else {
				e.readyPush(u, ref)
			}
		}
		e.gatedNew[u] = e.gatedNew[u][:0]
		for len(e.gated[u]) > 0 && e.gated[u][0].at <= e.now {
			b := heapPopTimed(&e.gated[u])
			for _, ref := range b.refs {
				e.readyPush(u, ref)
			}
			e.freeRefs = append(e.freeRefs, b.refs[:0])
		}
	}
	if len(e.ready[u]) == 0 {
		return
	}
	ref := e.readyPop(u)
	e.st[e.instIdx(ref.item, ref.rep)] = stRunning
	e.cpuBusy[u] = true
	e.pushEvent(e.now+e.repExec[ref.rep], evExec, ref.rep, ref.item)
}

// cycleGate returns the earliest synchronous start time of an instance.
func (e *Engine) cycleGate(ref instRef) float64 {
	return float64(int(ref.item)+2*(int(e.stage[ref.rep])-1)) * e.period
}

// gateCPU parks a gated instance in its processor's (cycle, proc) bucket.
// Only the first instance of a bucket costs a timed mark and a wake; the
// rest ride along. Buckets are only appended to while their gate is still in
// the future, so the mark and wake armed at creation always cover them.
//
//streamsched:hotpath
func (e *Engine) gateCPU(u int32, gate float64, ref instRef) {
	h := e.gated[u]
	for i := range h { // few distinct pending cycles per proc: scan beats a map
		if h[i].at == gate {
			h[i].refs = append(h[i].refs, ref)
			return
		}
	}
	refs := append(e.allocRefs(), ref)
	heapPushTimed(&e.gated[u], gateBucket{at: gate, refs: refs})
	heapPushTimed(&e.cpuGates, timedIdx{at: gate, ix: u})
	e.scheduleWake(gate)
}

// gateComm parks a gated transfer in the bucket for its opening time.
//
//streamsched:hotpath
func (e *Engine) gateComm(at float64, ci int32) {
	h := e.commGated
	for i := range h {
		if h[i].at == at {
			h[i].cis = append(h[i].cis, ci)
			return
		}
	}
	cis := append(e.allocCIs(), ci)
	heapPushTimed(&e.commGated, commBucket{at: at, cis: cis})
	e.scheduleWake(at)
}

// scheduleWake arms one evWake per distinct future opening time; every gate
// bucket sharing the time rides the same event. wakePending tracks the armed
// times (retired as their events fire) so duplicates are never pushed.
//
//streamsched:hotpath
func (e *Engine) scheduleWake(at float64) {
	for i := range e.wakePending {
		if e.wakePending[i].at == at {
			return
		}
	}
	heapPushTimed(&e.wakePending, timedIdx{at: at})
	e.wakes++
	e.pushEvent(at, evWake, 0, 0)
}

func (e *Engine) allocRefs() []instRef {
	if n := len(e.freeRefs); n > 0 {
		r := e.freeRefs[n-1]
		e.freeRefs = e.freeRefs[:n-1]
		return r
	}
	return make([]instRef, 0, 4)
}

func (e *Engine) allocCIs() []int32 {
	if n := len(e.freeCIs); n > 0 {
		r := e.freeCIs[n-1]
		e.freeCIs = e.freeCIs[:n-1]
		return r
	}
	return make([]int32, 0, 4)
}

// dropGateBuckets empties a processor's gate heap, recycling the ref slices.
func (e *Engine) dropGateBuckets(u int32) {
	for i := range e.gated[u] {
		e.freeRefs = append(e.freeRefs, e.gated[u][i].refs[:0])
	}
	e.gated[u] = e.gated[u][:0]
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
// order: dead endpoints drop (cascading), closed cycle gates wake once,
// free port pairs grant greedily. Duplicate candidates are harmless — a
// resolved transfer is skipped, a blocked one re-checks idempotently.
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
			e.instFor(item, l.dstRep)
			di := e.instIdx(item, l.dstRep)
			if e.st[di] == stPending {
				e.outst[e.pos(item)*e.npred+int(l.predSlot)]--
				e.tryEnqueue(item, l.dstRep)
			}
			e.dropComm(ci)
			continue
		}
		if c.earliest > e.now {
			if c.listed { // not parked yet
				e.unlistComm(ci)
				e.gateComm(c.earliest, ci)
			}
			continue
		}
		if !e.sendBusy[src] && !e.recvBusy[dst] {
			e.unlistComm(ci)
			e.sendBusy[src] = true
			e.recvBusy[dst] = true
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

// timed is anything heap-ordered by an opening time (gate buckets, cycle
// gate marks). All instantiations are value shapes, so the method calls
// devirtualize.
type timed interface{ when() float64 }

func (g gateBucket) when() float64 { return g.at }
func (b commBucket) when() float64 { return b.at }
func (x timedIdx) when() float64   { return x.at }

func heapPushTimed[T timed](h *[]T, x T) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[i].when() >= s[p].when() {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func heapPopTimed[T timed](h *[]T) T {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].when() < s[c].when() {
			c++
		}
		if s[c].when() >= s[i].when() {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
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
