package sim

import (
	"context"
	"fmt"
	"testing"

	"streamsched/internal/ltf"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/rltf"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
)

// TestPaperGuarantees checks the paper's guarantees on the simulator over
// seeded random instances rather than hand-picked goldens: a schedule built
// for ε survives any crash set of up to ε processors (every item is
// delivered), its measured latency stays within the (2S−1)Δ bound, and in
// synchronous mode it sustains the period Δ. Crashes land at t=0 and once
// mid-run, while items and transfers are in flight.
//
// The period is not asserted in dataflow mode: there AchievedPeriod is a
// mean over a finite window, and it can read a fraction of a percent above
// Δ while every item is still delivered (the Fig. 4 cell of fig4Schedule
// reads 40.149 at Δ=40 with two crashes).
func TestPaperGuarantees(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	const m = 12
	for seed := 1; seed <= seeds; seed++ {
		for eps := 1; eps <= 3; eps++ {
			for _, gran := range []float64{0.4, 1.0, 1.8} {
				r := rng.New(uint64(1000*seed + 100*eps + int(10*gran)))
				p := platform.RandomHeterogeneous(r, m, 0.5, 1, 0.5, 1, 100)
				cfg := randgraph.DefaultStreamConfig()
				cfg.MinTasks, cfg.MaxTasks = 30, 60
				cfg.Granularity = gran
				cfg.ComputeFraction = 0.2
				cfg.PeriodBase = 10
				g := randgraph.Stream(r, cfg, p)
				var crash []platform.ProcID
				for _, u := range r.Sample(m, eps) {
					crash = append(crash, platform.ProcID(u))
				}
				period := cfg.PeriodBase * float64(eps+1)
				for _, alg := range []string{"ltf", "rltf"} {
					var s *schedule.Schedule
					var err error
					if alg == "ltf" {
						s, err = ltf.Schedule(context.Background(), g, p, eps, period, ltf.Options{})
					} else {
						s, err = rltf.Schedule(context.Background(), g, p, eps, period, rltf.Options{})
					}
					if err != nil {
						continue // an infeasible instance promises nothing
					}
					checkGuarantees(t, fmt.Sprintf("seed %d eps %d gran %v %s", seed, eps, gran, alg), s, crash)
				}
			}
		}
	}
}

// checkGuarantees simulates s in both modes without crashes and under every
// prefix of crash (sizes 1..ε), each at t=0 and at 7.5Δ.
func checkGuarantees(t *testing.T, name string, s *schedule.Schedule, crash []platform.ProcID) {
	t.Helper()
	eng, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	// Latencies and periods are sums and differences of float64 times; the
	// slack only absorbs rounding.
	bound := s.LatencyBound() * (1 + 1e-9)
	maxPeriod := s.Period * (1 + 1e-9)
	for _, sync := range []bool{false, true} {
		for c := 0; c <= len(crash); c++ {
			for _, at := range []float64{0, 7.5} {
				if c == 0 && at > 0 {
					continue
				}
				cfg := DefaultConfig(s)
				cfg.Synchronous = sync
				if c > 0 {
					cfg.Failures = FailureSpec{Procs: crash[:c], At: at * s.Period}
				}
				res, err := eng.Run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				run := fmt.Sprintf("%s sync=%v crash=%v at %vΔ", name, sync, crash[:c], at)
				if res.Delivered != res.Items {
					t.Errorf("%s: delivered %d of %d items", run, res.Delivered, res.Items)
				}
				if res.MaxLatency > bound {
					t.Errorf("%s: max latency %v above the (2S−1)Δ bound %v", run, res.MaxLatency, s.LatencyBound())
				}
				if sync && res.AchievedPeriod > maxPeriod {
					t.Errorf("%s: achieved period %v above Δ=%v", run, res.AchievedPeriod, s.Period)
				}
			}
		}
	}
}
