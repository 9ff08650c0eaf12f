package streamsched_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"streamsched"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
	"streamsched/internal/sim"
)

// fuzzBytes hands out a fuzz input one byte at a time, then zeros, so
// every input decodes to an instance and a short input to a small one.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// crashTime says when the simulated failures of FuzzSolve strike.
type crashTime int

const (
	crashAtStart  crashTime = iota // at t=0
	crashInWarmup                  // halfway through the warm-up items
	crashInWindow                  // halfway through the measured items
)

// at returns the crash time under cfg, for period Δ.
func (c crashTime) at(cfg sim.Config, period float64) float64 {
	switch c {
	case crashInWarmup:
		return 0.5 * float64(cfg.Warmup) * period
	case crashInWindow:
		return 0.5 * float64(cfg.Warmup+cfg.Items) * period
	}
	return 0
}

// fuzzCase is one instance FuzzSolve decodes: a DAG of at most 12 tasks,
// a heterogeneous platform of at most 8 processors, ε ≤ 2, a period, the
// algorithm, the lookahead window, an optional platform delta and when the
// simulated failures strike.
type fuzzCase struct {
	g      *streamsched.Graph
	p      *streamsched.Platform
	eps    int
	period float64
	algo   streamsched.Algorithm
	look   int
	delta  *streamsched.PlatformDelta
	crash  crashTime
}

// decodeFuzzCase maps fuzz bytes to an instance. Layout, one byte each:
// tasks, ε, processors, algorithm, lookahead, period, crash time, then
// each task's work, each processor's speed, each directed link's
// bandwidth, each task pair's edge (a volume byte follows a present edge),
// and last the delta: its kind and its parameters.
func decodeFuzzCase(data []byte) fuzzCase {
	b := fuzzBytes(data)
	n := 1 + b.next()%12
	c := fuzzCase{eps: b.next() % 3}
	m := 1 + b.next()%8
	c.algo = []streamsched.Algorithm{streamsched.LTF, streamsched.RLTF, streamsched.Portfolio}[b.next()%3]
	c.look = []int{1, 2, 4}[b.next()%3]
	c.period = float64(1 + b.next()%64)
	c.crash = crashTime(b.next() % 3)

	c.g = streamsched.NewGraph("fuzz")
	for i := 0; i < n; i++ {
		c.g.AddTask(fmt.Sprintf("t%d", i), 0.5*float64(1+b.next()%16))
	}
	speed := func() float64 { return 0.25 * float64(1+b.next()%8) }
	bandwidth := func() float64 { return 0.5 * float64(1+b.next()%8) }
	speeds := make([]float64, m)
	for u := range speeds {
		speeds[u] = speed()
	}
	bw := make([][]float64, m)
	for u := range bw {
		bw[u] = make([]float64, m)
		for h := range bw[u] {
			if h != u {
				bw[u][h] = bandwidth()
			}
		}
	}
	c.p = streamsched.NewPlatform(speeds, bw)
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if b.next()%4 == 1 {
				c.g.MustAddEdge(streamsched.TaskID(i), streamsched.TaskID(j), float64(b.next()%6))
			}
		}
	}

	proc := func() streamsched.ProcID { return streamsched.ProcID(b.next() % m) }
	added := func(links int) streamsched.AddedProc {
		a := streamsched.AddedProc{Speed: speed()}
		for k := 0; k < links; k++ {
			a.Links = append(a.Links, bandwidth())
		}
		return a
	}
	var d streamsched.PlatformDelta
	switch b.next() % 6 {
	case 1: // lose a processor (never the last one)
		if m > 1 {
			d.Lost = []streamsched.ProcID{proc()}
		}
	case 2: // change a speed
		d.Speed = []streamsched.ProcSpeedChange{{Proc: proc(), Speed: speed()}}
	case 3: // change a directed link's bandwidth
		if m > 1 {
			from := proc()
			to := (from + 1 + streamsched.ProcID(b.next()%(m-1))) % streamsched.ProcID(m)
			d.Bandwidth = []streamsched.LinkBandwidthChange{{From: from, To: to, Bandwidth: bandwidth()}}
		}
	case 4: // a processor joins
		d.Added = []streamsched.AddedProc{added(m)}
	case 5: // a processor is replaced by a new one
		d.Lost = []streamsched.ProcID{proc()}
		d.Added = []streamsched.AddedProc{added(m - 1)}
	}
	if !d.Empty() {
		c.delta = &d
	}
	return c
}

// FuzzSolve checks the paper's guarantees through the whole solver: each
// decoded instance is solved (and, with a delta, replanned), and every
// schedule that comes back must pass the full audit, including the
// exhaustive ≤ε failure enumeration, and hold in simulation under every
// crash set of at most ε processors what the model promises in each mode.
// Both modes deliver every item. The stage-synchronized mode also keeps
// every latency within (2S−1)Δ and sustains a period of at most Δ: those
// are guarantees of the paper's synchronous semantics, not of free-running
// dataflow (see sim.Config.Synchronous). An instance may be infeasible,
// but then the error must match ErrInfeasible; any other error fails.
//
// The achieved period is a mean over the measured items, so it is asserted
// only where it measures the steady state: not for a crash inside the
// measured window, where the survivors deliver at other offsets within
// their cycles from the crash on and the one shift reads as a mean above
// Δ (48.013 at Δ=48 for an R-LTF schedule with S=1 and a crash at 7.5Δ).
func FuzzSolve(f *testing.F) {
	// Header bytes: tasks, ε, procs, algo (0 LTF, 1 R-LTF, 2 Portfolio),
	// lookahead (0→1, 1→2, 2→4), period, crash time (0 at t=0, 1 in the
	// warm-up, 2 in the measured window); then the works, speeds,
	// bandwidths, edges and the delta (see decodeFuzzCase).
	f.Add([]byte{5, 1, 4, 0, 0, 40, 0})                                     // LTF, no edges
	f.Add([]byte{8, 1, 6, 1, 1, 47, 1, 3, 5, 7, 2, 4, 6, 1, 3, 4, 5, 6, 7}) // R-LTF, k=2
	f.Add([]byte{11, 2, 7, 2, 2, 63, 0, 9, 1, 8, 2, 7, 3, 6, 4, 5, 0, 11, 12})
	f.Add([]byte{3, 2, 2, 0, 0, 20, 0}) // ε+1 > m: typed infeasibility
	f.Add([]byte{6, 1, 5, 0, 0, 1, 1})  // a period nothing fits in
	// Eight tasks with transfers on six processors (ε=1, Δ=56), once per
	// algorithm, lookahead and delta kind.
	for kind := byte(0); kind < 6; kind++ {
		seed := []byte{7, 1, 5, kind % 3, kind % 3, 55, kind % 3}
		seed = append(seed, 2, 4, 6, 8, 10, 12, 14, 1) // works
		seed = append(seed, 1, 3, 5, 7, 2, 4)          // speeds
		for l := 0; l < 6*5; l++ {                     // bandwidths
			seed = append(seed, byte(l))
		}
		for pair := 0; pair < 8*7/2; pair++ { // every third pair, volume pair%6
			if pair%3 == 0 {
				seed = append(seed, 1, byte(pair))
			} else {
				seed = append(seed, 0)
			}
		}
		seed = append(seed, kind, 2, 3, 4, 5, 6, 7) // delta kind and parameters
		f.Add(seed)
	}
	// R-LTF at ε=0 with lookahead 4, Δ=5 and S=3, where one processor runs
	// t1 (1.5) and t5 (3.5), a load of exactly Δ. In dataflow mode each
	// idle gap it spends waiting for t5's input is lost for good: the
	// period reads 5.144 and the latency climbs from 15.2 to 26.5, above
	// the 25 of (2S−1)Δ, while the synchronous run delivers every item at
	// 23.5 with a period of exactly 5.
	f.Add([]byte("70%12\x040020$7&7702C77$000000100002000000000000000000010001100100000019"))
	// Random inputs that reach the rarer paths: an infeasible lookahead
	// window (1), a rolled-back R-LTF retry rung (15) and repair's preserve
	// rung (27).
	for _, seed := range []uint64{1, 15, 27} {
		r := rng.New(seed)
		data := make([]byte, 120)
		for i := range data {
			data[i] = byte(r.IntN(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		solver, err := streamsched.NewSolver(
			streamsched.WithAlgorithm(c.algo),
			streamsched.WithEps(c.eps),
			streamsched.WithPeriod(c.period),
			streamsched.WithLookahead(c.look),
		)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		s, err := solver.Solve(ctx, c.g, c.p)
		if err != nil {
			if !errors.Is(err, streamsched.ErrInfeasible) {
				t.Fatalf("solve: untyped error: %v", err)
			}
			return
		}
		checkFuzzSchedule(t, "solve", s, c.crash)
		if c.delta == nil {
			return
		}
		res, err := solver.Replan(ctx, s, *c.delta)
		if err != nil {
			if !errors.Is(err, streamsched.ErrInfeasible) {
				t.Fatalf("replan %+v: untyped error: %v", *c.delta, err)
			}
			return
		}
		checkFuzzSchedule(t, fmt.Sprintf("replan %+v", *c.delta), res.Schedule, c.crash)
	})
}

// checkFuzzSchedule audits s and simulates it in both modes under every
// crash set of at most ε processors, crashing at the given time: both modes
// must deliver every item, and the synchronous mode must also keep the
// latency bound and the period.
func checkFuzzSchedule(t *testing.T, what string, s *streamsched.Schedule, crash crashTime) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	eng, err := sim.NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	// The slack only absorbs rounding, as in TestPaperGuarantees.
	bound := s.LatencyBound() * (1 + 1e-9)
	maxPeriod := s.Period * (1 + 1e-9)
	schedule.FailureSets(s.P.NumProcs(), s.Eps, func(procs []streamsched.ProcID) bool {
		for _, sync := range []bool{false, true} {
			cfg := sim.DefaultConfig(s)
			cfg.Synchronous = sync
			if len(procs) > 0 {
				cfg.Failures = sim.FailureSpec{Procs: procs, At: crash.at(cfg, s.Period)}
			}
			res, err := eng.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := fmt.Sprintf("%s: sync=%v crash=%v at %v", what, sync, procs, cfg.Failures.At)
			if res.Delivered != res.Items {
				t.Fatalf("%s: delivered %d of %d items", run, res.Delivered, res.Items)
			}
			if !sync {
				continue
			}
			if res.MaxLatency > bound {
				t.Fatalf("%s: max latency %v above the (2S−1)Δ bound %v", run, res.MaxLatency, s.LatencyBound())
			}
			if crash != crashInWindow && res.AchievedPeriod > maxPeriod {
				t.Fatalf("%s: achieved period %v above Δ=%v", run, res.AchievedPeriod, s.Period)
			}
		}
		return true
	})
}
