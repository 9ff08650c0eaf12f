package mapper

import (
	"math"
	"slices"

	"streamsched/internal/bitset"
	"streamsched/internal/dag"
	"streamsched/internal/infeas"
	"streamsched/internal/oneport"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
)

// Reliability discipline
//
// The paper locks processors per scheduled task ("P is said locked either if
// it is already involved in a communication with a replica of t, or it
// processes itself one of these replicas"). That rule is necessary but not
// *transitively* sufficient: replication chains braid across tasks, and two
// failures can take out all three replicas of a join task whose incoming
// chains share an upstream processor (DESIGN.md records a concrete
// counterexample found by the exhaustive tolerance test). We therefore
// strengthen the discipline to an inductive invariant:
//
//	V(r) — the vulnerability set of replica r — is r's own processor plus
//	the vulnerability sets of the replicas it chain-receives from
//	(fallback inputs contribute nothing: they arrive from all ε+1 copies
//	of the predecessor, at least one of which survives by induction).
//	The invariant: for every task, the V-sets of its ε+1 replicas are
//	pairwise disjoint.
//
// Under the invariant, any failure set F with |F| ≤ ε invalidates at most
// |F| replicas of each task, so at least one replica of every task — in
// particular of every exit task — stays valid. Forward construction (LTF)
// freezes V(r) at placement time; reverse construction (R-LTF) grows the
// V-sets of already-placed downstream replicas as their chain ancestors
// appear, which is what the support lists below account for.

// Candidate describes one evaluated placement of a replica: the target
// processor, the finish time the placement would achieve, the pipeline stage
// the replica would take, and the communication sources it would consume.
type Candidate struct {
	Proc    platform.ProcID
	Finish  float64
	Stage   int
	Sources []schedule.Ref
}

// Better compares two candidates and reports whether a is preferable to b.
// It parameterizes the difference between LTF ("minimum finish time F") and
// R-LTF (Rule 1: do not increase the stage number).
//
// The contract: a comparator never prefers a candidate more after its Stage
// or Finish grows. If a' is a with a Stage and a Finish no larger, then
// better(a, b) implies better(a', b). The candidate searches rely on it to
// skip, by a lower bound on Stage and Finish, every processor whose
// candidate cannot beat the incumbent (DESIGN.md §7, "Candidate bounds").
// A comparator must also be a strict total order on candidates of distinct
// processors, so the search keeps the same minimum whatever it skips.
// MinFinish and StagePreserving compare keys that only grow with Stage and
// Finish, lexicographically, and break every tie by Proc.
type Better func(a, b Candidate) bool

// incumbent is the best candidate a search has evaluated so far, ranked by
// the search's comparator.
type incumbent struct {
	better Better
	best   Candidate
	found  bool
}

// admits reports whether c could displace the incumbent: there is none yet,
// or better prefers c. By the Better contract, a lower bound the incumbent
// does not admit rules out every candidate it bounds.
func (in *incumbent) admits(c Candidate) bool { return !in.found || in.better(c, in.best) }

// offer makes c the incumbent if admits(c), and reports whether it did.
func (in *incumbent) offer(c Candidate) bool {
	if !in.admits(c) {
		return false
	}
	in.best, in.found = c, true
	return true
}

// MinFinish is LTF's candidate comparator.
func MinFinish(a, b Candidate) bool {
	if a.Finish != b.Finish {
		return a.Finish < b.Finish
	}
	if a.Stage != b.Stage {
		return a.Stage < b.Stage
	}
	return a.Proc < b.Proc
}

// StagePreserving is R-LTF's comparator: candidates that keep the stage
// number at or below bound win over those that exceed it (Rule 1); within
// each class, lower stage wins, then earlier finish.
func StagePreserving(bound int) Better {
	return func(a, b Candidate) bool {
		ap, bp := a.Stage > bound, b.Stage > bound
		if ap != bp {
			return bp
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Finish != b.Finish {
			return a.Finish < b.Finish
		}
		return a.Proc < b.Proc
	}
}

// orderSources fills the srcBuf scratch with the sources sorted by
// availability time (then ref, for determinism) — the order in which their
// transfers are scheduled. The result is valid until the next orderSources
// call.
func (st *State) orderSources(sources []schedule.Ref) []schedule.Ref {
	st.srcBuf = append(st.srcBuf[:0], sources...)
	// The comparator is total (Finish, then Task, then Copy break every
	// tie), so the unstable sort is deterministic; this runs per placement
	// trial and the stable variant's extra element moves are measurable.
	//nolint:determcheck // total comparator, hot path
	slices.SortFunc(st.srcBuf, func(a, b schedule.Ref) int {
		ra, rb := st.Sched.Replica(a), st.Sched.Replica(b)
		switch {
		case ra.Finish < rb.Finish:
			return -1
		case ra.Finish > rb.Finish:
			return 1
		case a.Task != b.Task:
			return int(a.Task) - int(b.Task)
		default:
			return a.Copy - b.Copy
		}
	})
	return st.srcBuf
}

// CommitPlace irrevocably places copy `copy` of t as the candidate
// evalCandidate produced: on cand.Proc, consuming cand.Sources, at stage
// cand.Stage. Transfers are reserved on the one-port timelines, the replica
// is registered in the schedule, and the steady-state loads and stage map
// are updated. It returns the placed replica. Reliability bookkeeping is
// the caller's job (commitForward/commitReverse).
func (st *State) CommitPlace(t dag.TaskID, copy int, cand Candidate) *schedule.Replica {
	st.Phases.Placements++
	u := cand.Proc
	ready := 0.0
	st.commBuf = st.commBuf[:0]
	for _, src := range st.orderSources(cand.Sources) {
		r := st.Sched.Replica(src)
		vol := st.volume(src.Task, t)
		cs, cf := st.Sys.Transfer(r.Proc, u, vol, r.Finish)
		st.commBuf = append(st.commBuf, schedule.Comm{From: src, Volume: vol, Start: cs, Finish: cf})
		if cf > ready {
			ready = cf
		}
		if r.Proc != u {
			d := cf - cs
			st.CIn[u] += d
			st.COut[r.Proc] += d
		}
	}
	start, finish := st.Sys.Compute(u, st.G.Task(t).Work, ready)
	st.Sigma[u] += finish - start
	in := append([]schedule.Comm(nil), st.commBuf...)
	rep := &schedule.Replica{Ref: schedule.Ref{Task: t, Copy: copy}, Proc: u, Start: start, Finish: finish, In: in}
	st.Sched.AddReplica(rep)
	st.stage[st.refIdx(t, copy)] = cand.Stage
	st.copyProcs.At(int(t)).Add(int(u))
	return rep
}

// Pools returns, for every predecessor of t, the replicas that can serve as
// one-to-one communication heads.
//
// The paper restricts pools to replicas on *singleton* processors
// (processors hosting exactly one replica of ⋃_i B(t_i), §4's X set) — its
// mechanism for keeping replication chains processor-disjoint. Our
// vulnerability discipline enforces that disjointness exactly (claims and
// support lists), which subsumes the singleton rule; keeping the restriction
// would force unnecessary fallbacks after Rule-1 merging, because
// co-located consumer replicas are never singleton. We therefore admit
// every placed replica and let the claims filter the unsafe combinations
// (documented deviation, DESIGN.md §3).
func (st *State) Pools(t dag.TaskID) [][]schedule.Ref {
	preds := st.G.Pred(t)
	pools := make([][]schedule.Ref, len(preds))
	for i, pe := range preds {
		for _, ref := range schedule.ReplicaRefs(pe.From, st.Eps) {
			if st.Sched.Replica(ref) != nil {
				pools[i] = append(pools[i], ref)
			}
		}
	}
	return pools
}

// Theta returns θ = min_i λ_i, the number of replicas of t that the
// one-to-one procedure can place (ε+1 for entry tasks, which need no
// incoming communications).
func (st *State) Theta(pools [][]schedule.Ref) int {
	if len(pools) == 0 {
		return st.Eps + 1
	}
	min := len(pools[0])
	for _, p := range pools[1:] {
		if len(p) < min {
			min = len(p)
		}
	}
	if min > st.Eps+1 {
		min = st.Eps + 1
	}
	return min
}

// singleCommFinish returns the earliest finish of a single transfer from
// src's processor to u, against the committed port state (read-only), which
// head selection ranks by, and bound, the earliest a trial's transfer from
// src can finish. Head selection re-derives these for every (pool
// candidate × processor) across copies and retry rungs. The two differ for
// a zero-volume transfer between processors: fin waits for a common gap of
// the two ports, but the transfer reserves nothing and completes at once.
func (st *State) singleCommFinish(src schedule.Ref, t dag.TaskID, u platform.ProcID) (fin, bound float64) {
	r := st.Sched.Replica(src)
	if r.Proc == u {
		return r.Finish, r.Finish
	}
	dur := st.P.CommTime(st.volume(src.Task, t), r.Proc, u)
	fin = st.Sys.CommonGap(r.Proc, u, r.Finish, dur) + dur
	if dur == 0 {
		return fin, r.Finish
	}
	return fin, fin
}

// siblingVuln returns the union of the vulnerability sets of the other
// copies of t — the processors a new placement of copy `copy` must avoid.
// The result is the sibV scratch set, valid until the next siblingVuln call.
func (st *State) siblingVuln(t dag.TaskID, copy int) bitset.Set {
	v := st.sibV
	v.Clear()
	for m := 0; m <= st.Eps; m++ {
		if m != copy {
			v.Union(st.claim(t, m))
		}
	}
	return v
}

// headsForward selects, for each pool, the admissible head with the earliest
// single-communication finish onto u. A head is admissible when its (frozen)
// vulnerability set avoids the sibling vulnerabilities. The chosen heads
// land in the candHeads scratch (promote with swapCandHeads), and lb is the
// latest of their singleCommFinish bounds; it reports false if some pool
// has no admissible head.
func (st *State) headsForward(t dag.TaskID, u platform.ProcID, pools [][]schedule.Ref, sibV bitset.Set) (lb float64, ok bool) {
	heads := st.headsScratch(len(pools))
	for i, pool := range pools {
		found := false
		bestFin, bestBound := 0.0, 0.0
		for _, ref := range pool {
			if st.claim(ref.Task, ref.Copy).Intersects(sibV) {
				continue
			}
			fin, bound := st.singleCommFinish(ref, t, u)
			if !found || fin < bestFin {
				bestFin, bestBound = fin, bound
				heads[i] = ref
				found = true
			}
		}
		if !found {
			return 0, false
		}
		if bestBound > lb {
			lb = bestBound
		}
	}
	return lb, true
}

// headBound is a lower bound on every candidate OneToOne can evaluate on u,
// read from the pools without a timeline query. Each pool's head is one of
// its replicas, and a transfer cannot start before its source finishes, so
// the candidate's stage is at least max(1, max over pools of the least
// stage+η of a replica, η being 0 on u and 1 elsewhere) and its finish at
// least the latest over pools of the earliest replica finish plus transfer
// time onto u, plus t's execution time on u. Every replica of a pool is a
// copy of one predecessor task, so the pool's volume is one lookup.
//
//streamsched:hotpath
func (st *State) headBound(t dag.TaskID, u platform.ProcID, pools [][]schedule.Ref) Candidate {
	stage, ready := 1, 0.0
	for _, pool := range pools {
		vol := st.volume(pool[0].Task, t)
		poolStage, poolFin := math.MaxInt, math.Inf(1)
		for _, ref := range pool {
			r := st.Sched.Replica(ref)
			s, fin := st.stage[st.refIdx(ref.Task, ref.Copy)], r.Finish
			if r.Proc != u {
				s++
				fin += st.P.CommTime(vol, r.Proc, u)
			}
			poolStage, poolFin = min(poolStage, s), min(poolFin, fin)
		}
		stage, ready = max(stage, poolStage), max(ready, poolFin)
	}
	return Candidate{Proc: u, Stage: stage, Finish: ready + st.execTime(t, u)}
}

// headsScratch sizes the candidate-heads scratch for n pools. The scratch is
// never nil, so an entry task (no pools) still yields a valid empty head
// list.
func (st *State) headsScratch(n int) []schedule.Ref {
	if cap(st.candHeads) < n || st.candHeads == nil {
		st.candHeads = make([]schedule.Ref, n, n+4)
	}
	st.candHeads = st.candHeads[:n]
	return st.candHeads
}

// swapCandHeads promotes the current candidate heads to best, recycling the
// previous best buffer for the next candidate.
func (st *State) swapCandHeads() []schedule.Ref {
	st.candHeads, st.bestHeads = st.bestHeads, st.candHeads
	return st.bestHeads
}

// mergedReset clears the reverse-mode merged-support scratch.
func (st *State) mergedReset() {
	if st.mergedCopy == nil {
		st.mergedCopy = make([]int16, st.G.NumTasks())
		for i := range st.mergedCopy {
			st.mergedCopy[i] = -1
		}
	}
	for _, t := range st.mergedTouch {
		st.mergedCopy[t] = -1
	}
	st.mergedTouch = st.mergedTouch[:0]
}

// mergedSet records copy cp of task t in the merged support.
func (st *State) mergedSet(t dag.TaskID, cp int16) {
	if st.mergedCopy[t] < 0 {
		st.mergedTouch = append(st.mergedTouch, t)
	}
	st.mergedCopy[t] = cp
}

// headsReverse selects heads for reverse-mode construction: consumer
// replicas whose support lists merge without assigning two different copies
// of any task, and whose merged claims admit u. The chosen heads land in the
// candHeads scratch and the merged support in the mergedCopy/mergedTouch
// scratch, and lb is the latest of the heads' singleCommFinish bounds; it
// reports false if no consistent choice exists.
func (st *State) headsReverse(t dag.TaskID, copy int, u platform.ProcID, pools [][]schedule.Ref) (lb float64, ok bool) {
	st.mergedReset()
	st.mergedSet(t, int16(copy))
	heads := st.headsScratch(len(pools))
	for i, pool := range pools {
		// Sort candidates by communication finish, then take the first
		// consistent one.
		cands := st.revCands[:0]
		for _, ref := range pool {
			fin, bound := st.singleCommFinish(ref, t, u)
			cands = append(cands, revCand{ref, fin, bound})
		}
		st.revCands = cands
		//nolint:determcheck // total comparator (fin, Task, Copy), hot path
		slices.SortFunc(cands, func(a, b revCand) int {
			switch {
			case a.fin < b.fin:
				return -1
			case a.fin > b.fin:
				return 1
			case a.ref.Task != b.ref.Task:
				return int(a.ref.Task) - int(b.ref.Task)
			default:
				return a.ref.Copy - b.ref.Copy
			}
		})
		chosen := false
		for _, c := range cands {
			if st.consistentSupport(c.ref) {
				for _, pr := range st.supp[st.refIdx(c.ref.Task, c.ref.Copy)] {
					st.mergedSet(pr.Task, pr.Copy)
				}
				heads[i] = c.ref
				if c.bound > lb {
					lb = c.bound
				}
				chosen = true
				break
			}
		}
		if !chosen {
			return 0, false
		}
	}
	// Final claim check for u over the merged support.
	for _, task := range st.mergedTouch {
		cp := int(st.mergedCopy[task])
		for m := 0; m <= st.Eps; m++ {
			if m != cp && st.claim(task, m).Contains(int(u)) {
				return 0, false
			}
		}
	}
	return lb, true
}

// consistentSupport reports whether head's support list can merge into the
// merged scratch without assigning two different copies of any task.
func (st *State) consistentSupport(head schedule.Ref) bool {
	for _, pr := range st.supp[st.refIdx(head.Task, head.Copy)] {
		if prev := st.mergedCopy[pr.Task]; prev >= 0 && prev != pr.Copy {
			return false
		}
	}
	return true
}

// OneToOne runs one step of the one-to-one mapping procedure (Algorithm 4.2)
// for copy `copy` of t: predecessor pools are consulted for the best head
// per candidate processor, condition (1) and the vulnerability discipline
// are enforced, and the candidate preferred by `better` is committed.
// Once an incumbent exists, a processor whose headBound it does not admit
// is skipped before head selection. Chosen heads are consumed from the
// pools. It returns false when no admissible candidate exists; the caller
// then falls back.
func (st *State) OneToOne(t dag.TaskID, copy int, pools [][]schedule.Ref, better Better) bool {
	for _, pool := range pools {
		if len(pool) == 0 {
			return false
		}
	}
	sibV := st.siblingVuln(t, copy)

	inc := incumbent{better: better}
	for u := 0; u < st.P.NumProcs(); u++ {
		pu := platform.ProcID(u)
		if sibV.Contains(u) {
			continue
		}
		if inc.found && !inc.admits(st.headBound(t, pu, pools)) {
			st.Phases.Pruned++
			continue
		}
		var lb float64
		var ok bool
		if st.ReverseMode {
			if lb, ok = st.headsReverse(t, copy, pu, pools); !ok {
				continue
			}
			// The widest claim this commit would produce is the reverse
			// analogue of the forward vulnerability size.
			wide := 0
			for _, task := range st.mergedTouch {
				if n := st.claim(task, int(st.mergedCopy[task])).CountAfterAdd(u); n > wide {
					wide = n
				}
			}
			if wide > st.VulnCap {
				continue // vulnerability too wide; force a fallback reset
			}
		} else {
			if lb, ok = st.headsForward(t, pu, pools, sibV); !ok {
				continue
			}
			v := st.vScratch
			v.Clear()
			v.Add(u)
			for _, h := range st.candHeads {
				v.Union(st.claim(h.Task, h.Copy))
			}
			if v.Count() > st.VulnCap {
				continue // vulnerability too wide; force a fallback reset
			}
		}
		cand, ok, _ := st.evalCandidate(t, pu, st.candHeads, lb, &inc)
		if !ok || !inc.offer(cand) {
			continue
		}
		inc.best.Sources = st.swapCandHeads()
		if st.ReverseMode {
			st.bestSupp = st.bestSupp[:0]
			for _, task := range st.mergedTouch {
				st.bestSupp = append(st.bestSupp, suppPair{Task: task, Copy: st.mergedCopy[task]})
			}
		}
	}
	if !inc.found {
		return false
	}
	best := inc.best
	st.CommitPlace(t, copy, best)
	if st.ReverseMode {
		st.commitReverse(t, copy, best.Proc, st.bestSupp)
	} else {
		st.commitForward(t, copy, best.Proc, best.Sources)
	}
	for i, head := range best.Sources {
		for k, ref := range pools[i] {
			if ref == head {
				pools[i] = append(pools[i][:k], pools[i][k+1:]...)
				break
			}
		}
	}
	return true
}

// commitForward freezes the vulnerability set of a forward chain replica:
// its processor plus the vulnerabilities of its heads.
func (st *State) commitForward(t dag.TaskID, copy int, u platform.ProcID, heads []schedule.Ref) {
	v := st.claim(t, copy)
	v.Add(int(u))
	for _, h := range heads {
		v.Union(st.claim(h.Task, h.Copy))
	}
}

// commitReverse records the new replica's support and adds its processor to
// the claims of every (task, copy) it transitively supports. An empty supp
// (the fallback path) reduces to the replica itself.
func (st *State) commitReverse(t dag.TaskID, cp int, u platform.ProcID, supp []suppPair) {
	if len(supp) == 0 {
		supp = []suppPair{{Task: t, Copy: int16(cp)}}
	}
	own := append([]suppPair(nil), supp...)
	st.supp[st.refIdx(t, cp)] = own
	for _, pr := range own {
		st.claim(pr.Task, int(pr.Copy)).Add(int(u))
	}
}

// AllSources returns every placed replica of every predecessor of t — the
// fallback's full communication replication (each replica of t then receives
// from all ε+1 copies of each predecessor, so validity never depends on
// chain disjointness). The result is a scratch buffer valid until the next
// AllSources call.
func (st *State) AllSources(t dag.TaskID) []schedule.Ref {
	st.allSrc = st.allSrc[:0]
	for _, pe := range st.G.Pred(t) {
		for _, ref := range schedule.ReplicaRefs(pe.From, st.Eps) {
			if st.Sched.Replica(ref) != nil {
				st.allSrc = append(st.allSrc, ref)
			}
		}
	}
	return st.allSrc
}

// Fallback places copy `copy` of t with full communication replication.
// The replica's vulnerability reduces to its own processor (every
// predecessor keeps at least one valid copy by the invariant), so the
// placement must only avoid the sibling vulnerability sets; the throughput
// part of condition (1) is hard and yields InfeasibleError when violated
// everywhere.
func (st *State) Fallback(t dag.TaskID, copy int, better Better) error {
	sources := st.AllSources(t)
	sibV := st.siblingVuln(t, copy)
	inc := incumbent{better: better}
	var sawCompute, sawPort bool
	for u := 0; u < st.P.NumProcs(); u++ {
		pu := platform.ProcID(u)
		if sibV.Contains(u) {
			continue
		}
		cand, ok, why := st.evalCandidate(t, pu, sources, 0, &inc)
		if !ok {
			switch why {
			case infeas.ReasonPeriodExceeded:
				sawCompute = true
			case infeas.ReasonPortOverload:
				sawPort = true
			}
			continue
		}
		inc.offer(cand)
	}
	if !inc.found {
		// Classify the dominant obstruction: a compute load that cannot fit
		// is the fundamental "period exceeded" failure; if every admissible
		// processor had compute headroom, the ports were the bottleneck; and
		// if no processor was admissible at all, the platform is too small
		// for the replica-disjointness discipline.
		reason := infeas.ReasonNoProcessor
		switch {
		case sawCompute:
			reason = infeas.ReasonPeriodExceeded
		case sawPort:
			reason = infeas.ReasonPortOverload
		}
		return infeas.AtTask(reason, t, copy, st.Period)
	}
	st.Phases.Fallbacks++
	st.CommitPlace(t, copy, inc.best)
	if st.ReverseMode {
		st.commitReverse(t, copy, inc.best.Proc, nil)
	} else {
		st.claim(t, copy).Add(int(inc.best.Proc))
	}
	return nil
}

// txnFrame is the rollback record of one open transaction (Try): the
// one-port journal mark, the load vectors, the claims span and the copyProcs
// rows of the transaction's tasks, packed consecutively. Frames are reused
// across transactions, so steady-state Try cycles allocate nothing.
type txnFrame struct {
	tasks            []dag.TaskID
	mark             oneport.Mark
	sigma, cIn, cOut []float64
	claims           bitset.Set
	copyProcs        bitset.Set
}

// Try runs place as a transaction covering everything the placement of the
// given tasks' replicas mutates. When place reports true its placements are
// kept; otherwise the state is rolled back to the point Try was called,
// withdrawing every replica of the tasks placed since, and the rollback is
// counted in Phases.Rollbacks. Try returns place's verdict, so every
// transaction has resolved by the time Try returns.
//
// The reverse-mode retry ladder wraps one task (reverse construction must
// never mix chain and fallback copies of one task: consumers that are no
// chain's head would then receive inputs only from the fallback copies, an
// untracked vulnerability — see the discipline note above), repair wraps
// each replay rung, and the speculative lookahead (ltf.Options.Lookahead)
// wraps a whole task window. The one-port side is a journal mark, which
// rewinds the timelines in O(changes), and the small per-processor load
// vectors and the claims span are captured by value into a reusable frame.
// The ready heap and precedence counters are not captured: callers pop the
// tasks before Try and mark them scheduled only after it returns.
//
// Transactions nest by lexical scope (reverse-mode lookahead runs the retry
// ladder inside a window transaction); a nested transaction's tasks must be
// among its parent's, so that rolling back the parent also withdraws what a
// kept child placed.
func (st *State) Try(tasks []dag.TaskID, place func() bool) bool {
	n := len(st.txns)
	if n < cap(st.txns) {
		st.txns = st.txns[:n+1]
	} else {
		st.txns = append(st.txns, txnFrame{})
	}
	f := &st.txns[n]
	f.tasks = append(f.tasks[:0], tasks...)
	f.mark = st.Sys.Mark()
	f.sigma = append(f.sigma[:0], st.Sigma...)
	f.cIn = append(f.cIn[:0], st.CIn...)
	f.cOut = append(f.cOut[:0], st.COut...)
	f.claims = st.claims.Snapshot(f.claims)
	f.copyProcs = f.copyProcs[:0]
	for _, t := range tasks {
		f.copyProcs = append(f.copyProcs, st.copyProcs.At(int(t))...)
	}
	ok := place()
	// Nested transactions have resolved, so the frame is the innermost one
	// again, though place may have grown (and so moved) the stack.
	f = &st.txns[n]
	st.txns = st.txns[:n]
	if ok {
		return true
	}
	st.Phases.Rollbacks++
	st.Sys.Rollback(f.mark)
	copy(st.Sigma, f.sigma)
	copy(st.CIn, f.cIn)
	copy(st.COut, f.cOut)
	st.claims.Restore(f.claims)
	w := len(st.copyProcs.At(0))
	for i, t := range f.tasks {
		st.copyProcs.At(int(t)).CopyFrom(f.copyProcs[i*w : (i+1)*w])
		for _, ref := range schedule.ReplicaRefs(t, st.Eps) {
			if st.Sched.Replica(ref) != nil {
				st.Sched.RemoveReplica(ref)
			}
			k := st.refIdx(ref.Task, ref.Copy)
			st.stage[k] = 0
			st.supp[k] = nil
		}
	}
	return false
}

// MaxPredStage returns the largest stage number among the placed replicas of
// t's predecessors (R-LTF's Rule 1 bound; on the reversed graph these are
// the successors of the original task).
func (st *State) MaxPredStage(t dag.TaskID) int {
	max := 0
	for _, pe := range st.G.Pred(t) {
		for _, ref := range schedule.ReplicaRefs(pe.From, st.Eps) {
			if st.Sched.Replica(ref) != nil && st.stage[st.refIdx(ref.Task, ref.Copy)] > max {
				max = st.stage[st.refIdx(ref.Task, ref.Copy)]
			}
		}
	}
	return max
}
