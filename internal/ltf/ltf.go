// Package ltf implements the LTF (Latency, Throughput, Failures) scheduling
// algorithm — Algorithm 4.1 of the paper. LTF extends Iso-Level CAFT with a
// throughput constraint: tasks are consumed in priority order in chunks β of
// up to B ready tasks, each task is replicated ε+1 times, replicas are
// placed with the one-to-one mapping procedure while singleton processors
// remain (minimizing replicated communications) and with full communication
// replication otherwise, and every placement must satisfy condition (1):
// the target's computing load and the affected send/receive port loads must
// all fit within the period Δ = 1/T. LTF fails — returns an error — when no
// processor can accommodate a replica within the period.
package ltf

import (
	"context"
	"fmt"

	"streamsched/internal/dag"
	"streamsched/internal/mapper"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
)

// Options tune LTF and R-LTF (package rltf aliases this type).
type Options struct {
	// ChunkSize is B, the number of ready tasks mapped per iso-level chunk.
	// 0 means the paper's default, B = m. ChunkSize 1 degrades LTF to plain
	// one-task-at-a-time list scheduling (the ablation of DESIGN.md §E10).
	ChunkSize int
	// DisableOneToOne forces full communication replication everywhere —
	// the (ε+1)² baseline the one-to-one procedure improves on (§4.2 claim,
	// DESIGN.md §E9).
	DisableOneToOne bool
	// Lookahead enables speculative chunk placement (DESIGN.md §7): windows
	// of k ready tasks are placed once per candidate strategy under a
	// mapper transaction, each complete placement is scored by (max stage,
	// max finish) over the window, and the best is kept. 0 or 1 disables
	// speculation and reproduces the plain chunked loop exactly; k > 1
	// trades construction time for schedule quality.
	Lookahead int
}

// Schedule maps g onto p tolerating eps failures at the given period, and
// returns the resulting schedule. The error is non-nil when the instance is
// infeasible for LTF (a *mapper.InfeasibleError classifying the failure,
// matchable with errors.Is against infeas.ErrInfeasible) or when ctx is
// cancelled mid-placement (ctx.Err()).
func Schedule(ctx context.Context, g *dag.Graph, p *platform.Platform, eps int, period float64, opts Options) (*schedule.Schedule, error) {
	st, err := mapper.New(g, p, eps, period, "LTF")
	if err != nil {
		return nil, err
	}
	if err := Construct(ctx, st, "ltf", opts, func(dag.TaskID) mapper.Better { return mapper.MinFinish }); err != nil {
		return nil, err
	}
	return st.Sched, nil
}

// Construct runs the LTF construction over st under a trace span named
// span, which closes carrying the construction's phase counters (and the
// error, if any). R-LTF calls it on the reversed graph with ReverseMode set
// and its per-task Rule-1 comparator (the bound depends on the stages of
// the task's already-placed neighbors).
//
// Forward mode interleaves the chunk tasks' replica rounds (PlaceForward).
// Reverse mode places each task's ε+1 replicas contiguously and
// all-or-nothing — either every copy through the one-to-one procedure or
// every copy through the fallback — because a mixture would leave the
// consumers that are no chain's head fed only by the fallback copies, an
// untracked vulnerability (see mapper's discipline note). A mid-way
// one-to-one failure rolls the task back through a mapper transaction
// (State.Try).
//
// With opts.Lookahead > 1 the loop pops windows of k ready tasks and places
// each window speculatively (placeSpeculative); otherwise it is the plain
// loop, bit for bit.
func Construct(ctx context.Context, st *mapper.State, span string, opts Options, betterFor func(dag.TaskID) mapper.Better) error {
	st.OneToOneOff = opts.DisableOneToOne
	pop := opts.ChunkSize
	if pop <= 0 {
		pop = st.P.NumProcs()
	}
	if opts.Lookahead > 1 {
		pop = opts.Lookahead
	}
	sp := obs.FromContext(ctx).Child(span)
	err := Run(obs.ContextWith(ctx, sp), st, pop, func(chunk []dag.TaskID, cs obs.SpanRef) error {
		if opts.Lookahead > 1 && len(chunk) > 1 {
			return placeSpeculative(st, chunk, betterFor, cs)
		}
		return placeVariant(st, chunk, 0, betterFor, cs)
	})
	if sp.Active() {
		sp.SetArg("trials", st.Phases.Trials)
		sp.SetArg("pruned", st.Phases.Pruned)
		sp.SetArg("placements", st.Phases.Placements)
		sp.SetArg("rollbacks", st.Phases.Rollbacks)
		sp.SetArg("fallbacks", st.Phases.Fallbacks)
		if err != nil {
			sp.SetArg("err", err.Error())
		}
	}
	sp.End()
	return err
}

// Run is the chunked replica-placement loop of Algorithm 4.1, shared by
// LTF, R-LTF and incremental repair (package repair): it pops chunks of up
// to chunkSize ready tasks in priority order, hands each to place, and
// marks it scheduled, releasing its successors. place gets the chunk's
// trace span.
func Run(ctx context.Context, st *mapper.State, chunkSize int, place func(chunk []dag.TaskID, cs obs.SpanRef) error) error {
	// Tracing is per chunk, not per placement: a chunk is the coarsest unit
	// that still shows where a construction spent its time, and the span is
	// inactive (pure no-op) unless the request is traced.
	sp := obs.FromContext(ctx)
	for !st.Done() {
		// Cancellation is checked once per chunk: a chunk is the placement
		// loop's unit of work, so an abandoned search (tricrit, Batch) stops
		// within one chunk's worth of placements.
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := st.PopChunk(chunkSize)
		if len(chunk) == 0 {
			return fmt.Errorf("ltf: no ready task but %s", "unscheduled tasks remain (graph not acyclic?)")
		}
		cs := sp.Child("chunk")
		if cs.Active() {
			cs.SetArg("tasks", len(chunk))
		}
		if err := place(chunk, cs); err != nil {
			cs.End()
			return err
		}
		st.MarkScheduled(chunk)
		cs.End()
	}
	return nil
}

// forwardTask is PlaceForward's per-task state: the predecessor pools, the
// number of copies they can chain (θ), and the number chained so far.
type forwardTask struct {
	pools    [][]schedule.Ref
	theta, z int
}

// PlaceForward places every replica of the chunk tasks in forward mode,
// interleaving the tasks' replica rounds (the iso-level balancing of
// Algorithm 4.1): copy n of every task is placed before copy n+1 of any.
// Each copy goes through the one-to-one procedure while the task's
// predecessor pools admit a chain (and one-to-one is enabled), and through
// the fallback's full communication replication otherwise. A one-task
// chunk places that task's ε+1 copies in a row.
func PlaceForward(st *mapper.State, chunk []dag.TaskID, betterFor func(dag.TaskID) mapper.Better) error {
	tasks := make([]forwardTask, len(chunk))
	for k, t := range chunk {
		tasks[k].pools = st.Pools(t)
		tasks[k].theta = st.Theta(tasks[k].pools)
	}
	for n := 0; n <= st.Eps; n++ {
		for k, t := range chunk {
			ft := &tasks[k]
			better := betterFor(t)
			if !st.OneToOneOff && ft.z < ft.theta && st.OneToOne(t, n, ft.pools, better) {
				ft.z++
				continue
			}
			if err := st.Fallback(t, n, better); err != nil {
				return err
			}
		}
	}
	return nil
}

// placeVariant runs one placement strategy over the chunk: variant 0 is the
// mode's canonical order — interleaved forward rounds, or reverse tasks in
// priority order — and variant 1 the speculative alternative: forward, all
// ε+1 copies of each task before the next (later tasks chain onto the
// completed placements of earlier ones); reverse, back to front (the
// lowest-priority task picks its merge targets first).
func placeVariant(st *mapper.State, chunk []dag.TaskID, variant int, betterFor func(dag.TaskID) mapper.Better, cs obs.SpanRef) error {
	if st.ReverseMode {
		for i := range chunk {
			t := chunk[i]
			if variant == 1 {
				t = chunk[len(chunk)-1-i]
			}
			if err := placeTaskAllOrNothing(st, t, betterFor(t), cs); err != nil {
				return err
			}
		}
		return nil
	}
	if variant == 0 {
		return PlaceForward(st, chunk, betterFor)
	}
	for i := range chunk {
		if err := PlaceForward(st, chunk[i:i+1], betterFor); err != nil {
			return err
		}
	}
	return nil
}

// placeSpeculative is the lookahead driver: each placement strategy builds
// the whole window inside one mapper transaction (State.Try), the complete
// placement is scored by (max stage, max finish) over the window's replicas
// — lower is better, ties keep the earlier variant — and rolled back, and
// the winner re-runs for keeps (the machinery is deterministic, so the
// re-run reproduces the scored placement exactly). When every variant
// fails the error of the canonical strategy is returned, so infeasibility
// classification matches the non-speculative loop.
func placeSpeculative(st *mapper.State, chunk []dag.TaskID, betterFor func(dag.TaskID) mapper.Better, cs obs.SpanRef) error {
	const variants = 2
	best := -1
	bestStage, bestFin := 0, 0.0
	var firstErr error
	for v := 0; v < variants; v++ {
		st.Try(chunk, func() bool {
			if err := placeVariant(st, chunk, v, betterFor, cs); err != nil {
				if v == 0 {
					firstErr = err
				}
				return false
			}
			stage, fin := windowScore(st, chunk)
			if best < 0 || stage < bestStage || (stage == bestStage && fin < bestFin) {
				best, bestStage, bestFin = v, stage, fin
			}
			return false
		})
	}
	if best < 0 {
		return firstErr
	}
	if cs.Active() {
		cs.SetArg("variant", best)
	}
	return placeVariant(st, chunk, best, betterFor, cs)
}

// windowScore reduces a fully placed window to its speculative score: the
// maximum pipeline stage and maximum finish time over the window's replicas.
// Stage dominates — it bounds the synchronous latency (2S−1)Δ — and finish
// breaks ties toward the placement that leaves the most timeline headroom.
func windowScore(st *mapper.State, chunk []dag.TaskID) (stage int, fin float64) {
	for _, t := range chunk {
		for _, ref := range schedule.ReplicaRefs(t, st.Eps) {
			if s := st.ReplicaStage(ref); s > stage {
				stage = s
			}
			if r := st.Sched.Replica(ref); r != nil && r.Finish > fin {
				fin = r.Finish
			}
		}
	}
	return stage, fin
}

// placeTaskAllOrNothing implements the reverse-mode per-task dichotomy with
// a retry ladder: a full one-to-one chain with the stage-preserving
// comparator first; if the aggressive merging runs the chains into a wall,
// a full chain with the finish-time comparator (which spreads load); and
// only then the all-fallback placement with its (ε+1)²-per-edge
// communications. Each rung runs inside a mapper transaction (State.Try),
// so a failed rung rolls back through the journal in O(changes).
func placeTaskAllOrNothing(st *mapper.State, t dag.TaskID, better mapper.Better, sp obs.SpanRef) error {
	if !st.OneToOneOff && st.Theta(st.Pools(t)) >= st.Eps+1 {
		for rung := 0; rung < 2; rung++ {
			b := better
			if rung == 1 {
				b = mapper.MinFinish
			}
			pools := st.Pools(t)
			if st.Try([]dag.TaskID{t}, func() bool {
				for n := 0; n <= st.Eps; n++ {
					if !st.OneToOne(t, n, pools, b) {
						return false
					}
				}
				return true
			}) {
				return nil
			}
			if sp.Active() {
				sp.Event("rollback", map[string]any{"task": int(t), "rung": rung})
			}
		}
	}
	for n := 0; n <= st.Eps; n++ {
		if err := st.Fallback(t, n, better); err != nil {
			return err
		}
	}
	return nil
}
