// Package rltf implements the Reverse LTF algorithm (§4.2 of the paper),
// the paper's best performer. R-LTF traverses the application graph
// bottom-up from the sink nodes and guides every placement by two rules,
// in order:
//
//   - Rule 1 — the pipeline stage number of the current replica must not
//     increase: placements that keep the stage at or below the maximum
//     stage of the already-placed successor replicas are preferred, which
//     in practice merges the replica onto a successor replica's processor
//     whenever the throughput constraint allows;
//   - Rule 2 — the number of replicated communications is reduced with the
//     one-to-one mapping procedure over singleton processors, exactly as
//     in LTF.
//
// Mechanically, R-LTF runs the LTF machinery on the *reversed* graph with a
// stage-preserving candidate comparator, then mirrors the resulting
// schedule in time: a replica scheduled at [σ, φ) in reverse virtual time
// runs at [H−φ, H−σ) forward, and a reverse communication s→t becomes the
// forward communication t→s over the mirrored window. The reverse
// construction prices its transfers on the transposed platform (link l_st
// at the bandwidth of l_ts), so mirroring preserves durations even when
// the two directions of a link differ, as well as one-port disjointness
// (send and receive ports swap roles) and the throughput loads (C^I and
// C^O swap): the forward schedule is valid whenever the reverse one is.
package rltf

import (
	"context"

	"streamsched/internal/dag"
	"streamsched/internal/ltf"
	"streamsched/internal/mapper"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
)

// Options tune the algorithm; the zero value uses the paper's defaults.
// R-LTF runs LTF's construction, so it takes LTF's options.
type Options = ltf.Options

// Schedule maps g onto p tolerating eps failures at the given period using
// R-LTF and returns the (forward) schedule. Infeasibility is reported as a
// *mapper.InfeasibleError (errors.Is infeas.ErrInfeasible); a cancelled ctx
// aborts the placement loop with ctx.Err().
func Schedule(ctx context.Context, g *dag.Graph, p *platform.Platform, eps int, period float64, opts Options) (*schedule.Schedule, error) {
	gr := g.Reverse()
	st, err := mapper.New(gr, p.Transpose(), eps, period, "R-LTF")
	if err != nil {
		return nil, err
	}
	st.ReverseMode = true
	// Rule 1: the stage bound for task t is the largest stage among the
	// placed replicas of its reversed-graph predecessors — the successors
	// of the original task.
	betterFor := func(t dag.TaskID) mapper.Better {
		return mapper.StagePreserving(st.MaxPredStage(t))
	}
	if err := ltf.Construct(ctx, st, "rltf", opts, betterFor); err != nil {
		return nil, err
	}
	return mirror(g, p, st), nil
}

// FaultFree returns the paper's reference schedule: R-LTF without
// replication (ε = 0), "assuming that the system is completely safe".
func FaultFree(ctx context.Context, g *dag.Graph, p *platform.Platform, period float64, opts Options) (*schedule.Schedule, error) {
	s, err := Schedule(ctx, g, p, 0, period, opts)
	if err != nil {
		return nil, err
	}
	s.Algorithm = "FF"
	return s, nil
}

// mirror converts the reverse-graph schedule into a forward schedule of g
// on p.
func mirror(g *dag.Graph, p *platform.Platform, st *mapper.State) *schedule.Schedule {
	rev := st.Sched
	h := rev.Makespan()
	fwd := schedule.New(g, p, st.Eps, st.Period, "R-LTF")
	// A reverse comm into ref becomes a forward comm out of its source, so
	// each forward replica receives exactly as many comms as its reverse
	// counterpart sends; count them first and size the In lists exactly.
	inCount := make([]int, g.NumTasks()*(st.Eps+1))
	idx := func(r schedule.Ref) int { return int(r.Task)*(st.Eps+1) + r.Copy }
	for t := 0; t < g.NumTasks(); t++ {
		for _, ref := range schedule.ReplicaRefs(dag.TaskID(t), st.Eps) {
			for _, c := range rev.Replica(ref).In {
				inCount[idx(c.From)]++
			}
		}
	}
	for t := 0; t < g.NumTasks(); t++ {
		for _, ref := range schedule.ReplicaRefs(dag.TaskID(t), st.Eps) {
			rr := rev.Replica(ref)
			rep := &schedule.Replica{
				Ref:    ref,
				Proc:   rr.Proc,
				Start:  h - rr.Finish,
				Finish: h - rr.Start,
			}
			if n := inCount[idx(ref)]; n > 0 {
				rep.In = make([]schedule.Comm, 0, n)
			}
			fwd.AddReplica(rep)
		}
	}
	// A reverse comm (s,M) → (x,N), with s a successor of x in g, becomes
	// the forward comm (x,N) → (s,M).
	for t := 0; t < g.NumTasks(); t++ {
		for _, ref := range schedule.ReplicaRefs(dag.TaskID(t), st.Eps) {
			rr := rev.Replica(ref)
			for _, c := range rr.In {
				consumer := fwd.Replica(c.From)
				consumer.In = append(consumer.In, schedule.Comm{
					From:   ref,
					Volume: c.Volume,
					Start:  h - c.Finish,
					Finish: h - c.Start,
				})
			}
		}
	}
	return fwd
}
