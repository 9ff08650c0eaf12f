// Package sim executes a replicated pipelined schedule on a simulated
// platform and measures what the paper calls "the real execution time for a
// given schedule rather than just bounds" (§5): data items are injected
// every Δ time units, every replica instance runs when its inputs have
// arrived, transfers contend for the one-port send/receive ports, and
// processors can crash (fail-silent: a faulty processor produces no output;
// fail-stop: no recovery).
//
// The engine is a classic discrete-event simulation. Contention is resolved
// dynamically with deterministic arbitration (earlier item first, then the
// static schedule's ordering), so the measured latency is typically below
// the (2S−1)·Δ bound — which is exactly the gap between the "UpperBound" and
// "With 0 Crash" curves of Figures 3 and 4.
//
// Failure semantics (documented choices where the paper is silent):
//   - a processor failed at time τ starts nothing at or after τ, and any
//     computation or transfer in flight at τ is lost;
//   - failures are detectable (fail-stop), so a consumer does not block on
//     inputs from dead sources: it starts once every input that can still
//     arrive has arrived, provided at least one valid input per predecessor
//     task did — otherwise the instance itself becomes invalid and the
//     failure cascades;
//   - transfers towards dead processors are skipped (detection reaches the
//     sender before the send is scheduled).
//
// The implementation is flat and allocation-light: replica instances live in
// dense slices indexed by a precomputed replica index × a recycled item ring
// (only a pipeline-depth window of items is ever live), events are values in
// a 4-ary heap, and dispatch is incremental — per-processor ready heaps, a
// dirty-processor worklist, one pending-transfer list per (sender,
// receiver) processor pair and a ring of synchronous cycle slots mean an
// event only touches the state it could have changed. The per-schedule static tables (exec durations, out-link
// fan-out, transfer durations, arbitration ranks) are built once by
// NewEngine and shared across runs, so experiment campaigns reuse one Engine
// for every scenario of a schedule.
package sim

import (
	"context"

	"streamsched/internal/platform"
	"streamsched/internal/schedule"
	"streamsched/internal/trace"
)

// FailureSpec injects fail-silent/fail-stop processor crashes.
type FailureSpec struct {
	// Procs lists the processors that fail.
	Procs []platform.ProcID
	// At is the failure time; 0 means the processors are dead from the
	// start (the paper's crash experiments).
	At float64
}

// Config controls a simulation run.
type Config struct {
	// Items is the number of data items streamed through the pipeline
	// (≤ 0 → DefaultConfig's).
	Items int
	// Warmup is the number of leading items excluded from the latency
	// statistics (pipeline fill; DefaultConfig's when Items and Warmup are
	// both ≤ 0).
	Warmup int
	// Failures optionally injects processor crashes.
	Failures FailureSpec
	// Synchronous selects the paper's stage-synchronized pipeline semantics
	// (after Hary & Özgüner): for item k, a stage-σ replica computes no
	// earlier than cycle (k + 2(σ−1))·Δ and its cross-processor outputs
	// transfer no earlier than cycle (k + 2σ−1)·Δ, so the measured latency
	// approaches the (2S−1)·Δ bound from below and crashes surface as whole
	// extra cycles when a surviving exit replica sits in a deeper stage.
	// The (2S−1)·Δ bound and the throughput 1/Δ are guarantees of these
	// semantics. The default (false) is free-running dataflow execution:
	// every instance starts as soon as its inputs and resources allow. It
	// promises delivery under at most ε crashes, but neither the bound nor
	// the period: a processor loaded to exactly Δ loses every idle gap it
	// spends waiting for an input, so its backlog, and with it the latency,
	// can grow past (2S−1)·Δ.
	Synchronous bool
	// TraceItems, when positive, records the executions and transfers of
	// the first TraceItems data items in Result.Trace (exportable to the
	// Chrome trace-event format via internal/trace).
	TraceItems int
}

// DefaultConfig sizes a run for schedule s: enough items to fill the
// pipeline plus a measurement window.
func DefaultConfig(s *schedule.Schedule) Config {
	st := s.Stages()
	return Config{Items: 3*st + 40, Warmup: 2*st + 5}
}

// Result reports the measured behaviour.
type Result struct {
	// Latencies holds the end-to-end latency of each measured (post-warmup,
	// delivered) item: completion of every exit task minus injection time.
	Latencies []float64
	// MeanLatency and MaxLatency summarize Latencies (NaN when empty).
	MeanLatency float64
	MaxLatency  float64
	// AchievedPeriod is the mean inter-delivery time over measured items.
	AchievedPeriod float64
	// Delivered counts items for which every exit task produced a valid
	// result; Items is the total injected.
	Delivered int
	Items     int
	// Trace holds the recorded execution spans (see Config.TraceItems).
	Trace []trace.Span
}

// Run simulates the schedule under cfg and returns the measurements. A
// cancelled ctx aborts the event loop with ctx.Err().
//
// Run builds a fresh Engine per call; callers simulating the same schedule
// under several configurations (the experiment campaigns) should build one
// Engine with NewEngine and call its Run repeatedly to reuse the derived
// schedule tables and the simulation state buffers.
func Run(ctx context.Context, s *schedule.Schedule, cfg Config) (*Result, error) {
	e, err := NewEngine(s)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, cfg)
}
