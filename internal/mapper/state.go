// Package mapper holds the scheduling machinery shared by LTF and R-LTF:
// ready-list management with tℓ+bℓ priorities, the condition-(1) throughput
// feasibility test, the one-to-one mapping procedure (Algorithm 4.2) with
// its singleton/locked processor discipline, and the fallback placement that
// replicates communications in full (the Iso-Level CAFT rule).
//
// LTF drives this machinery over the forward graph; R-LTF drives it over the
// reversed graph with a stage-preserving placement preference and mirrors
// the result (see package rltf). The two algorithms differ only in their
// traversal direction and candidate-selection comparator, which is why the
// comparator is a parameter here.
//
// The placement loop is the hot path of every tri-criteria search (period
// grids, latency ladders, MinPeriod bisections probe it hundreds of times
// per instance), so the state is engineered to stay off the allocator in
// steady state: vulnerability and exclusion sets are word-packed bitsets in
// flat backing arrays (package bitset), the ready list is a binary heap, the
// candidate evaluation shares its priced communication terms between the
// feasibility test and the trial placement, and every per-candidate
// intermediate lives in a reusable scratch buffer on State. DESIGN.md
// §Performance documents the layout and the allocation budget.
package mapper

import (
	"fmt"
	"math"

	"streamsched/internal/bitset"
	"streamsched/internal/dag"
	"streamsched/internal/infeas"
	"streamsched/internal/oneport"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
)

// tol absorbs floating-point jitter in feasibility comparisons.
const tol = 1e-9

// InfeasibleError reports that the instance admits no schedule — the
// condition under which "the algorithm fails" (§4.1). It is the shared
// classified error of package infeas (Reason, Task, Copy, Proc, Period) and
// wraps infeas.ErrInfeasible, so callers match it with errors.Is.
type InfeasibleError = infeas.Error

// suppPair records that a replica's processor supports copy Copy of task
// Task (the flattened form of the old per-replica support map).
type suppPair struct {
	Task dag.TaskID
	Copy int16
}

// PhaseCounters tallies solver-internal placement activity for
// observability: the algorithm layers (ltf/rltf/repair) attach a final
// snapshot to their trace span (internal/obs, DESIGN.md §12). Plain
// non-atomic fields on purpose — a State is mutated by one goroutine by
// construction, and the hottest site (evalCandidate) affords a plain
// increment but not an atomic or a function call.
type PhaseCounters struct {
	// Trials counts candidate placements evaluated (evalCandidate calls).
	Trials int64
	// Pruned counts candidate processors a lower bound ruled out, before
	// head selection or before the trial (DESIGN.md §7, "Candidate
	// bounds").
	Pruned int64
	// Placements counts replicas committed (CommitPlace).
	Placements int64
	// Rollbacks counts transactions unwound (a Try whose place reported
	// false): retry-ladder and repair rungs abandoned with a journal
	// rollback, and speculative lookahead windows scored and rewound.
	Rollbacks int64
	// Fallbacks counts replicas committed via full communication
	// replication (Fallback).
	Fallbacks int64
}

// State carries one in-progress schedule construction.
type State struct {
	G      *dag.Graph
	P      *platform.Platform
	Eps    int
	Period float64
	Sys    *oneport.System
	Sched  *schedule.Schedule

	// Per-processor steady-state loads, maintained incrementally; these are
	// the Σ_u, C_u^I, C_u^O of condition (1).
	Sigma []float64
	CIn   []float64
	COut  []float64

	// ReverseMode marks a construction over the reversed graph (R-LTF).
	ReverseMode bool
	// OneToOneOff disables the one-to-one procedure entirely, forcing full
	// communication replication for every placement — the ablation baseline
	// for the §4.2 communication-count claim.
	OneToOneOff bool
	// VulnCap bounds the vulnerability-set size a chain replica may reach
	// (and, in reverse mode, the number of task-copies one replica may
	// support). Without the cap, long chains accumulate claims until the
	// sibling exclusions cover the whole machine and placement fails even
	// under generous periods; a fallback placement resets the set to the
	// replica's own processor. Defaults to max(2, m/(ε+1)) — an even
	// partition of the machine among the chains.
	VulnCap int
	// Phases accumulates placement-phase counters for observability; read
	// by the algorithm layer when closing its trace span.
	Phases PhaseCounters

	// claims holds the vulnerability set of every replica (t, c) at span
	// index refIdx(t,c): the processors whose failure can invalidate the
	// replica through its chain inputs. The reliability invariant keeps the
	// claims of one task's copies pairwise disjoint (see the discipline note
	// in place.go). A flat span, so transactions snapshot it wholesale.
	claims *bitset.Span
	// copyProcs set t records which processors already host a copy of t —
	// the hard exclusion (two copies of one task must never share a
	// processor).
	copyProcs *bitset.Span
	// stage holds the pipeline stage number of every placed replica at
	// refIdx(t,c), 0 while unplaced (stages start at 1). R-LTF's Rule 1
	// consults it mid-construction.
	stage []int
	// supp maps a placed replica (refIdx) to the (task, copy) assignments
	// its processor supports; only used in reverse mode, where vulnerability
	// flows from consumers to producers.
	supp [][]suppPair

	prio        []float64 // static tℓ+bℓ priorities (average weights)
	predLeft    []int
	scheduled   []bool
	unscheduled int          // tasks not yet marked scheduled; Done() is a counter test
	ready       []dag.TaskID // binary max-heap on (priority desc, task ID asc)
	// predVol[t] lists (predecessor, edge volume) pairs; predecessor counts
	// are small, so a linear scan beats a map in the hot path.
	predVol [][]predEdge

	// Scratch buffers — reused across candidate evaluations so the steady
	// state allocates nothing. Each is owned by exactly one phase of a
	// placement step; see the methods that fill them.
	srcBuf      []schedule.Ref    // orderSources result
	durBuf      []float64         // evalCandidate: priced comm durations, aligned with srcBuf
	outDelta    []float64         // evalCandidate: per-processor added send load
	outTouch    []platform.ProcID // evalCandidate: processors with non-zero outDelta
	sibV        bitset.Set        // siblingVuln result
	vScratch    bitset.Set        // OneToOne forward: prospective vulnerability
	candHeads   []schedule.Ref    // heads of the candidate under evaluation
	bestHeads   []schedule.Ref    // heads of the best candidate so far
	mergedCopy  []int16           // headsReverse: merged support, -1 = unset
	mergedTouch []dag.TaskID      // headsReverse: tasks set in mergedCopy
	bestSupp    []suppPair        // OneToOne reverse: merged support of the best candidate
	revCands    []revCand         // headsReverse: per-pool candidate ordering
	allSrc      []schedule.Ref    // AllSources result
	chunkBuf    []dag.TaskID      // PopChunk result
	commBuf     []schedule.Comm   // CommitPlace: staged incoming comms

	// txns is the stack of open transactions (Try), innermost last.
	// Frames past len keep their buffers for the next Try.
	txns []txnFrame
}

// predEdge is one (predecessor, volume) entry of predVol.
type predEdge struct {
	From dag.TaskID
	Vol  float64
}

// revCand is one scored head candidate in reverse-mode selection: fin and
// bound as singleCommFinish returns them.
type revCand struct {
	ref        schedule.Ref
	fin, bound float64
}

// New prepares a construction state. The algorithm name labels the resulting
// schedule.
func New(g *dag.Graph, p *platform.Platform, eps int, period float64, algorithm string) (*State, error) {
	if eps+1 > p.NumProcs() {
		return nil, infeas.Newf(infeas.ReasonNoProcessor, period,
			"ε+1 = %d replicas need at least that many processors, have %d", eps+1, p.NumProcs())
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	meanS := p.MeanSpeed()
	meanB := p.MeanBandwidth()
	nw := func(t dag.Task) float64 { return t.Work / meanS }
	ew := func(e dag.Edge) float64 {
		if math.IsInf(meanB, 1) {
			return 0
		}
		return e.Volume / meanB
	}
	v, m := g.NumTasks(), p.NumProcs()
	st := &State{
		G:           g,
		P:           p,
		Eps:         eps,
		Period:      period,
		Sys:         oneport.NewSystem(p),
		Sched:       schedule.New(g, p, eps, period, algorithm),
		Sigma:       make([]float64, m),
		CIn:         make([]float64, m),
		COut:        make([]float64, m),
		claims:      bitset.NewSpan(v*(eps+1), m),
		copyProcs:   bitset.NewSpan(v, m),
		stage:       make([]int, v*(eps+1)),
		supp:        make([][]suppPair, v*(eps+1)),
		prio:        g.Priorities(nw, ew),
		predLeft:    make([]int, v),
		scheduled:   make([]bool, v),
		unscheduled: v,
		predVol:     make([][]predEdge, v),
		outDelta:    make([]float64, m),
		sibV:        bitset.New(m),
		vScratch:    bitset.New(m),
	}
	for i := 0; i < v; i++ {
		st.predLeft[i] = g.InDegree(dag.TaskID(i))
		pv := make([]predEdge, 0, g.InDegree(dag.TaskID(i)))
		for _, e := range g.Pred(dag.TaskID(i)) {
			pv = append(pv, predEdge{From: e.From, Vol: e.Volume})
		}
		st.predVol[i] = pv
	}
	for _, t := range g.Entries() {
		st.readyPush(t)
	}
	st.VulnCap = m / (eps + 1)
	if st.VulnCap < 2 {
		st.VulnCap = 2
	}
	return st, nil
}

// refIdx flattens a replica reference into the claims/stage/supp index.
func (st *State) refIdx(t dag.TaskID, copy int) int { return int(t)*(st.Eps+1) + copy }

// claim returns the vulnerability set of copy c of task t.
func (st *State) claim(t dag.TaskID, c int) bitset.Set { return st.claims.At(st.refIdx(t, c)) }

// ClaimSet exposes a replica's vulnerability set for tests and audits. The
// returned set aliases construction state: do not modify it.
func (st *State) ClaimSet(t dag.TaskID, c int) bitset.Set { return st.claim(t, c) }

// ReplicaStage returns the pipeline stage of a placed replica (0 while
// unplaced; stages start at 1).
func (st *State) ReplicaStage(ref schedule.Ref) int { return st.stage[st.refIdx(ref.Task, ref.Copy)] }

// Priority returns the static tℓ+bℓ priority of task t.
func (st *State) Priority(t dag.TaskID) float64 { return st.prio[t] }

// Done reports whether every task has been scheduled. It is a counter test:
// the outer placement loop asks after every chunk, and an O(v) scan here
// made the loop quadratic in the task count.
func (st *State) Done() bool { return st.unscheduled == 0 }

// ReadyCount returns the current size of the ready list.
func (st *State) ReadyCount() int { return len(st.ready) }

// readyLess orders the ready heap: higher priority first, ties broken by
// smaller task ID for determinism.
func (st *State) readyLess(a, b dag.TaskID) bool {
	if st.prio[a] != st.prio[b] {
		return st.prio[a] > st.prio[b]
	}
	return a < b
}

// readyPush inserts t into the ready heap.
func (st *State) readyPush(t dag.TaskID) {
	st.ready = append(st.ready, t)
	i := len(st.ready) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !st.readyLess(st.ready[i], st.ready[parent]) {
			break
		}
		st.ready[i], st.ready[parent] = st.ready[parent], st.ready[i]
		i = parent
	}
}

// readyPop removes and returns the highest-priority ready task.
func (st *State) readyPop() dag.TaskID {
	top := st.ready[0]
	n := len(st.ready) - 1
	st.ready[0] = st.ready[n]
	st.ready = st.ready[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && st.readyLess(st.ready[l], st.ready[least]) {
			least = l
		}
		if r < n && st.readyLess(st.ready[r], st.ready[least]) {
			least = r
		}
		if least == i {
			return top
		}
		st.ready[i], st.ready[least] = st.ready[least], st.ready[i]
		i = least
	}
}

// PopChunk removes and returns up to max ready tasks, highest priority first
// (ties broken by smaller task ID for determinism). This is the β selection
// of Algorithm 4.1: working on a chunk rather than one task improves load
// balance (the Iso-Level idea). The ready list is a heap, so a chunk costs
// O(B log r) instead of the former full re-sort; the returned slice is a
// scratch buffer valid until the next PopChunk call.
func (st *State) PopChunk(max int) []dag.TaskID {
	n := max
	if n > len(st.ready) {
		n = len(st.ready)
	}
	st.chunkBuf = st.chunkBuf[:0]
	for i := 0; i < n; i++ {
		st.chunkBuf = append(st.chunkBuf, st.readyPop())
	}
	return st.chunkBuf
}

// MarkScheduled declares the chunk tasks fully placed and releases their
// ready successors.
func (st *State) MarkScheduled(tasks []dag.TaskID) {
	for _, t := range tasks {
		if st.scheduled[t] {
			panic(fmt.Sprintf("mapper: task %d scheduled twice", t))
		}
		st.scheduled[t] = true
	}
	st.unscheduled -= len(tasks)
	for _, t := range tasks {
		for _, e := range st.G.Succ(t) {
			st.predLeft[e.To]--
			if st.predLeft[e.To] == 0 {
				st.readyPush(e.To)
			}
		}
	}
}

// execTime returns the running time of t on u.
func (st *State) execTime(t dag.TaskID, u platform.ProcID) float64 {
	return st.P.ExecTime(st.G.Task(t).Work, u)
}

// volume returns the edge volume carried from predecessor task p to t.
func (st *State) volume(p, t dag.TaskID) float64 {
	for _, e := range st.predVol[t] {
		if e.From == p {
			return e.Vol
		}
	}
	panic(fmt.Sprintf("mapper: %d is not a predecessor of %d", p, t))
}

// evalCandidate is the single-pass candidate evaluation at the core of the
// hot path. It orders the sources, prices each transfer once, folds the
// prices into the condition-(1) feasibility sums (§4.1: with the new load
// added, T·Σ_u ≤ 1, T·C_u^I ≤ 1 and T·C_h^O ≤ 1 for every sending
// processor h; callers handle the locking part) and the pipeline stage, and
// — when feasible and evaluated for a search — simulates the placement with
// the already-priced durations to find its finish. One walk over the
// sources serves the feasibility test, the stage and the trial, and
// CommitPlace commits the candidate as evaluated. The violated clause of
// condition (1) comes back classified: the copy-disjointness exclusion maps
// to ReasonNoProcessor, the compute-load clause to ReasonPeriodExceeded,
// and the port-budget clauses to ReasonPortOverload.
//
// inc is the search the candidate competes in; nil (a replay) evaluates
// feasibility and stage only. Within a search, a candidate whose lower
// bound cannot beat the incumbent is not tried: ok is false with
// ReasonUnknown, and Phases.Pruned counts it. The bound is the stage and
// max(lb, latest source finish plus transfer time) plus the execution
// time; lb is the latest single-transfer bound (singleCommFinish) of the
// heads OneToOne chose (0 from Fallback). The trial reserves only the transfers a later
// transfer of the same trial reads, and prices the last one and the
// compute slot without reserving them, so a single-source trial leaves the
// journal untouched.
//
//streamsched:hotpath
func (st *State) evalCandidate(t dag.TaskID, u platform.ProcID, sources []schedule.Ref, lb float64, inc *incumbent) (cand Candidate, ok bool, why infeas.Reason) {
	st.Phases.Trials++
	if st.copyProcs.At(int(t)).Contains(int(u)) {
		return cand, false, infeas.ReasonNoProcessor // hard: two copies of one task on one processor
	}
	exec := st.execTime(t, u)
	if st.Sigma[u]+exec > st.Period+tol {
		return cand, false, infeas.ReasonPeriodExceeded
	}
	ordered := st.orderSources(sources)
	if cap(st.durBuf) < len(ordered) {
		st.durBuf = make([]float64, len(ordered))
	}
	st.durBuf = st.durBuf[:len(ordered)]
	addIn := 0.0
	stage := 1
	last := -1 // the last transfer that occupies the ports
	for i, src := range ordered {
		r := st.Sched.Replica(src)
		if r == nil {
			panicUnplacedSource(src)
		}
		eta := 1
		st.durBuf[i] = 0
		if r.Proc == u {
			eta = 0
		} else {
			d := st.P.CommTime(st.volume(src.Task, t), r.Proc, u)
			st.durBuf[i] = d
			addIn += d
			if st.outDelta[r.Proc] == 0 {
				st.outTouch = append(st.outTouch, r.Proc)
			}
			st.outDelta[r.Proc] += d
			if d != 0 {
				last = i
			}
		}
		if v := st.stage[st.refIdx(src.Task, src.Copy)] + eta; v > stage {
			stage = v
		}
		if fin := r.Finish + st.durBuf[i]; fin > lb {
			lb = fin
		}
	}
	ok = true
	if st.CIn[u]+addIn > st.Period+tol {
		ok, why = false, infeas.ReasonPortOverload
	} else {
		for _, h := range st.outTouch {
			if st.COut[h]+st.outDelta[h] > st.Period+tol {
				ok, why = false, infeas.ReasonPortOverload
				break
			}
		}
	}
	for _, h := range st.outTouch {
		st.outDelta[h] = 0
	}
	st.outTouch = st.outTouch[:0]
	if !ok {
		return cand, false, why
	}
	cand = Candidate{Proc: u, Stage: stage, Sources: sources}
	if inc == nil {
		return cand, true, infeas.ReasonUnknown
	}
	if !inc.admits(Candidate{Proc: u, Stage: stage, Finish: lb + exec}) {
		st.Phases.Pruned++
		return cand, false, infeas.ReasonUnknown
	}
	m := st.Sys.Mark()
	ready := 0.0
	for i, src := range ordered {
		r := st.Sched.Replica(src)
		fin := r.Finish
		switch {
		case i < last:
			_, fin = st.Sys.TransferDur(r.Proc, u, st.durBuf[i], r.Finish)
		case i == last:
			fin = st.Sys.CommonGap(r.Proc, u, r.Finish, st.durBuf[i]) + st.durBuf[i]
		}
		if fin > ready {
			ready = fin
		}
	}
	st.Sys.Rollback(m)
	cand.Finish = st.Sys.Comp(u).EarliestGap(ready, exec) + exec
	return cand, true, infeas.ReasonUnknown
}

// panicUnplacedSource is evalCandidate's cold panic path: the message
// formatting must stay out of the hot function (PR5 allocation budget).
func panicUnplacedSource(src schedule.Ref) {
	panic(fmt.Sprintf("mapper: source %v not placed", src))
}
