package repair

import (
	"context"
	"errors"
	"fmt"

	"streamsched/internal/dag"
	"streamsched/internal/ltf"
	"streamsched/internal/mapper"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
)

// ErrBudgetExceeded reports that more tasks needed search re-placement
// than the caller's repair budget allowed. The caller typically falls back
// to a cold re-solve (core.Solver.Replan does, unless configured not to).
var ErrBudgetExceeded = errors.New("repair: budget exceeded")

// Stats quantifies how much of the old schedule survived the delta.
type Stats struct {
	// Replayed counts tasks whose every replica was recommitted at its
	// prescribed placement with its prescribed communication structure.
	Replayed int
	// Preserved counts tasks whose replicas kept their prescribed
	// processors but had their inputs widened to full communication
	// replication — the middle rung of the repair ladder, taken when the
	// prescribed structure violates the forward vulnerability discipline
	// (typical for mirrored R-LTF schedules).
	Preserved int
	// Repaired counts tasks re-placed through the search machinery after
	// both replay rungs failed under the new platform.
	Repaired int
	// ColdSolve is set by core.Solver.Replan when repair failed and the
	// result came from a full re-solve instead.
	ColdSolve bool
}

// Result is a successful repair: a complete schedule over the post-delta
// platform plus the repair statistics.
type Result struct {
	Schedule *schedule.Schedule
	Stats    Stats
}

// Repair reconstructs a schedule for old's graph over the post-delta
// platform newP. remap translates pre-delta processor identifiers to
// post-delta ones (-1 = lost), as produced by Delta.Apply. Tasks are
// consumed by LTF's chunked construction loop (ltf.Run), and each task runs
// down a three-rung ladder, the replay rungs inside journaled mapper
// transactions:
//
//  1. exact replay — every replica recommitted at its prescribed processor
//     with its prescribed sources;
//  2. processor-preserving replay — prescribed processors kept, inputs
//     widened to full communication replication (whose vulnerability
//     discipline is unconditionally sound);
//  3. search — LTF's forward placement of the task alone
//     (ltf.PlaceForward: one-to-one, then full communication replication).
//
// A failed rung unwinds through the journal (O(changes) rollback) before
// the next is tried. budget bounds the number of search-re-placed tasks
// (> budget fails with ErrBudgetExceeded); budget ≤ 0 is unlimited.
// Infeasibility of a search placement surfaces as the usual classified
// infeasibility error.
func Repair(ctx context.Context, old *schedule.Schedule, newP *platform.Platform, remap []platform.ProcID, budget int) (*Result, error) {
	if old == nil {
		return nil, errors.New("repair: nil schedule")
	}
	if !old.Complete() {
		return nil, errors.New("repair: the committed schedule is incomplete")
	}
	if len(remap) != old.P.NumProcs() {
		return nil, fmt.Errorf("repair: remap covers %d processors, schedule has %d", len(remap), old.P.NumProcs())
	}
	st, err := mapper.New(old.G, newP, old.Eps, old.Period, old.Algorithm)
	if err != nil {
		return nil, err
	}
	// Trace span covering the whole repair, with an instant event per task
	// that left the exact-replay rung (the interesting ones: a ladder rung
	// taken is the signal an operator reads from a replan trace). Inactive
	// unless the request is traced.
	sp := obs.FromContext(ctx).Child("repair")
	defer sp.End()
	res := &Result{}
	defer func() {
		if sp.Active() {
			sp.SetArg("replayed", res.Stats.Replayed)
			sp.SetArg("preserved", res.Stats.Preserved)
			sp.SetArg("repaired", res.Stats.Repaired)
			sp.SetArg("trials", st.Phases.Trials)
			sp.SetArg("rollbacks", st.Phases.Rollbacks)
		}
	}()
	err = ltf.Run(obs.ContextWith(ctx, sp), st, newP.NumProcs(), func(chunk []dag.TaskID, _ obs.SpanRef) error {
		for _, t := range chunk {
			if replayTask(st, old, remap, t) {
				res.Stats.Replayed++
				continue
			}
			if preserveTask(st, old, remap, t) {
				res.Stats.Preserved++
				if sp.Active() {
					sp.Event("rung", map[string]any{"task": int(t), "rung": "preserve"})
				}
				continue
			}
			res.Stats.Repaired++
			if sp.Active() {
				sp.Event("rung", map[string]any{"task": int(t), "rung": "search"})
			}
			if budget > 0 && res.Stats.Repaired > budget {
				return fmt.Errorf("%w: %d tasks needed re-placement, budget %d", ErrBudgetExceeded, res.Stats.Repaired, budget)
			}
			if err := ltf.PlaceForward(st, []dag.TaskID{t}, func(dag.TaskID) mapper.Better { return mapper.MinFinish }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Schedule = st.Sched
	return res, nil
}

// replayTask recommits every replica of t at its prescribed placement
// inside one transaction; any failure rolls the whole task back.
func replayTask(st *mapper.State, old *schedule.Schedule, remap []platform.ProcID, t dag.TaskID) bool {
	return st.Try([]dag.TaskID{t}, func() bool {
		for c := 0; c <= st.Eps; c++ {
			pl, ok := prescribed(st, old, remap, t, c)
			if !ok || !st.ReplayPlace(t, c, pl) {
				return false
			}
		}
		return true
	})
}

// preserveTask recommits every replica of t on its prescribed processor but
// with full communication replication. The fallback claim ({processor}
// only) satisfies the forward discipline whenever the copies sit on
// distinct processors, so this rung salvages the load distribution of
// schedules whose communication structure does not replay — mirrored R-LTF
// chains in particular — at the price of wider transfers, which the
// condition-(1) port budgets re-admit or reject per copy.
func preserveTask(st *mapper.State, old *schedule.Schedule, remap []platform.ProcID, t dag.TaskID) bool {
	return st.Try([]dag.TaskID{t}, func() bool {
		for c := 0; c <= st.Eps; c++ {
			r := old.Replica(schedule.Ref{Task: t, Copy: c})
			u := remap[r.Proc]
			if u < 0 {
				return false
			}
			if !st.ReplayPlace(t, c, mapper.ReplayPlacement{Proc: u, Sources: st.AllSources(t)}) {
				return false
			}
		}
		return true
	})
}

// prescribed extracts the replay placement of copy c of t from the old
// schedule, remapping the processor and classifying the communication
// pattern. A replica that consumed exactly one source per predecessor was
// chain-placed (one-to-one); one that consumed every copy of every
// predecessor was fallback-placed. Anything else — a lost processor, a
// pattern that matches neither — fails the exact-replay rung.
func prescribed(st *mapper.State, old *schedule.Schedule, remap []platform.ProcID, t dag.TaskID, c int) (mapper.ReplayPlacement, bool) {
	r := old.Replica(schedule.Ref{Task: t, Copy: c})
	u := remap[r.Proc]
	if u < 0 {
		return mapper.ReplayPlacement{}, false
	}
	preds := old.G.Pred(t)
	pl := mapper.ReplayPlacement{Proc: u, Chain: true}
	if len(preds) == 0 {
		return pl, true
	}
	chain := make([]schedule.Ref, len(preds))
	counts := make([]int, len(preds))
	for _, in := range r.In {
		for i, pe := range preds {
			if in.From.Task == pe.From {
				counts[i]++
				chain[i] = in.From
				break
			}
		}
	}
	allOne, allFull := true, true
	for _, n := range counts {
		if n != 1 {
			allOne = false
		}
		if n != st.Eps+1 {
			allFull = false
		}
	}
	switch {
	case allOne:
		pl.Sources = chain
		return pl, true
	case allFull:
		// Full replication: consume every placed copy of every predecessor.
		// At replay time the predecessors are fully committed, so AllSources
		// reproduces the prescribed set exactly.
		pl.Chain = false
		pl.Sources = st.AllSources(t)
		return pl, true
	default:
		return mapper.ReplayPlacement{}, false
	}
}
