package mapper

// Replay support for incremental repair (package repair). A committed
// schedule prescribes, for every replica, a processor and the exact
// communication sources it consumed. After a platform delta those
// prescriptions may or may not still be admissible: the processor can be
// gone, a changed speed can break the condition-(1) compute budget, a
// changed bandwidth can overflow a port. ReplayPlace re-validates one
// prescribed placement against the *current* construction state — the
// post-delta platform, a partially rebuilt schedule — and commits it only
// when every check passes, so a repair driver can keep the surviving
// placement verbatim and route just the evicted tasks through the normal
// search machinery.
//
// Replay always runs in forward mode: a committed schedule is forward-time
// regardless of the algorithm that produced it (R-LTF mirrors its reverse
// construction before returning), so the replayed claims follow the forward
// freezing rule of commitForward. A mirrored R-LTF structure that happens to
// violate the forward discipline check is not an error — ReplayPlace reports
// false and the caller demotes the task down its ladder (typically to a
// processor-preserving full-replication replay, then to a fresh search),
// which keeps the ε-fault-tolerance invariant unconditional.
//
// The VulnCap heuristic is deliberately not enforced during replay: the cap
// is a construction-quality knob (it steers the search away from overly wide
// chains), not a correctness constraint, and it depends on the machine size,
// which the delta just changed. Re-checking it here would evict placements
// that are perfectly sound under the discipline.

import (
	"streamsched/internal/dag"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
)

// ReplayPlacement is one prescribed replica placement extracted from a
// committed schedule, with the processor already remapped to the post-delta
// platform.
type ReplayPlacement struct {
	// Proc is the prescribed processor in post-delta numbering.
	Proc platform.ProcID
	// Chain marks a one-to-one placement: Sources lists exactly one head
	// per predecessor, in predecessor order, and the replica's vulnerability
	// set is its processor plus the heads' sets. Otherwise the placement
	// uses full communication replication and Sources must cover every
	// placed copy of every predecessor (the replica's vulnerability then
	// reduces to its own processor).
	Chain bool
	// Sources are the replica references to consume; they survive deltas
	// unchanged (references name task copies, not processors).
	Sources []schedule.Ref
}

// ReplayPlace attempts to commit copy `copy` of t exactly as prescribed.
// It re-runs every admission check a search placement would face — the
// processor range, the sibling-vulnerability exclusion, the chain
// discipline, and condition (1) — and reports false without mutating
// anything when one fails. Callers are expected to run the ε+1 copies of a
// task inside one Try, whose place reports false on a mid-task failure, so
// the already-replayed copies unwind through the journal.
func (st *State) ReplayPlace(t dag.TaskID, copy int, pl ReplayPlacement) bool {
	u := pl.Proc
	if int(u) < 0 || int(u) >= st.P.NumProcs() {
		return false
	}
	for _, src := range pl.Sources {
		if st.Sched.Replica(src) == nil {
			return false // source evicted upstream; prescription is stale
		}
	}
	sibV := st.siblingVuln(t, copy)
	if sibV.Contains(int(u)) {
		return false
	}
	if pl.Chain {
		// The prospective vulnerability set {u} ∪ head claims must avoid the
		// sibling sets (the pairwise-disjointness invariant, place.go).
		v := st.vScratch
		v.Clear()
		v.Add(int(u))
		for _, h := range pl.Sources {
			v.Union(st.claim(h.Task, h.Copy))
		}
		if v.Intersects(sibV) {
			return false
		}
	}
	cand, ok, _ := st.evalCandidate(t, u, pl.Sources, 0, nil)
	if !ok {
		return false
	}
	st.CommitPlace(t, copy, cand)
	if pl.Chain {
		st.commitForward(t, copy, u, pl.Sources)
	} else {
		st.claim(t, copy).Add(int(u))
	}
	return true
}
