package sim

import (
	"context"
	"math"
	"testing"

	"streamsched/internal/platform"
	"streamsched/internal/rltf"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
)

func TestSynchronousManualChain(t *testing.T) {
	// a@P0 stage 1, b@P1 stage 2, Δ = 2, exec 1 each, comm 1.
	// Item k: a computes in cycle k ([2k, 2k+2)), the transfer waits for
	// cycle k+1, b computes in cycle k+2 → completes at 2k+5.
	// Latency = 5 = (2S−2)Δ + exec = 4 + 1, just under the bound 6.
	s := manualChain(t)
	res, err := Run(context.Background(), s, Config{Items: 30, Warmup: 8, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 30 {
		t.Fatalf("delivered %d/30", res.Delivered)
	}
	if math.Abs(res.MeanLatency-5) > 1e-9 {
		t.Fatalf("sync latency = %v, want 5", res.MeanLatency)
	}
	if res.MeanLatency > s.LatencyBound() {
		t.Fatal("sync latency above bound")
	}
}

func TestSynchronousAtLeastDataflow(t *testing.T) {
	// Stage gating can only delay work: synchronous latency dominates the
	// free-running dataflow latency on the same schedule.
	r := rng.New(71)
	for trial := 0; trial < 8; trial++ {
		g := randomDAG(r, 12+r.IntN(15))
		p := platform.RandomHeterogeneous(r, 8, 0.5, 1, 0.5, 1, 10)
		s, err := rltf.Schedule(context.Background(), g, p, 1, 15, rltf.Options{})
		if err != nil {
			continue
		}
		df, err := Run(context.Background(), s, DefaultConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(s)
		cfg.Synchronous = true
		sy, err := Run(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sy.MeanLatency < df.MeanLatency-1e-9 {
			t.Fatalf("trial %d: sync %v below dataflow %v", trial, sy.MeanLatency, df.MeanLatency)
		}
		if sy.MaxLatency > s.LatencyBound()+1e-6 {
			t.Fatalf("trial %d: sync %v above bound %v", trial, sy.MaxLatency, s.LatencyBound())
		}
	}
}

func TestSynchronousNearBound(t *testing.T) {
	// Per item, the measured synchronous latency is pinned by the stage of
	// the cheapest exit replica: the item is done no earlier than the
	// opening of that replica's compute cycle. (The (2S−1)Δ bound itself
	// uses the maximum stage over all replicas, which a deep fallback copy
	// can inflate — the measured curve tracks the cheapest valid exits.)
	r := rng.New(73)
	for trial := 0; trial < 6; trial++ {
		g := randomDAG(r, 15)
		p := platform.RandomHeterogeneous(r, 8, 0.5, 1, 0.5, 1, 10)
		s, err := rltf.Schedule(context.Background(), g, p, 1, 12, rltf.Options{})
		if err != nil {
			continue
		}
		stages := s.StageNumbers()
		floorStage := 0
		for _, x := range s.G.Exits() {
			minCopy := 1 << 30
			for c := 0; c <= s.Eps; c++ {
				if st := stages[s.Index(schedule.Ref{Task: x, Copy: c})]; st < minCopy {
					minCopy = st
				}
			}
			if minCopy > floorStage {
				floorStage = minCopy
			}
		}
		lower := float64(2*floorStage-2) * s.Period
		cfg := DefaultConfig(s)
		cfg.Synchronous = true
		res, err := Run(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanLatency < lower-1e-9 {
			t.Fatalf("trial %d: sync latency %v below the stage floor %v",
				trial, res.MeanLatency, lower)
		}
		if res.MaxLatency > s.LatencyBound()+1e-6 {
			t.Fatalf("trial %d: sync latency %v above bound %v",
				trial, res.MaxLatency, s.LatencyBound())
		}
	}
}

func TestSynchronousCrashDelivers(t *testing.T) {
	r := rng.New(79)
	checked := 0
	for trial := 0; trial < 12 && checked < 4; trial++ {
		g := randomDAG(r, 15)
		p := platform.RandomHeterogeneous(r, 8, 0.5, 1, 0.5, 1, 10)
		s, err := rltf.Schedule(context.Background(), g, p, 1, 15, rltf.Options{})
		if err != nil {
			continue
		}
		cfg := DefaultConfig(s)
		cfg.Synchronous = true
		cfg.Failures = FailureSpec{Procs: []platform.ProcID{platform.ProcID(r.IntN(8))}}
		res, err := Run(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered != res.Items {
			t.Fatalf("trial %d: sync crash run lost items", trial)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no feasible instance")
	}
}

func TestSynchronousDeterministic(t *testing.T) {
	r := rng.New(83)
	g := randomDAG(r, 18)
	p := platform.RandomHeterogeneous(r, 8, 0.5, 1, 0.5, 1, 10)
	s, err := rltf.Schedule(context.Background(), g, p, 1, 15, rltf.Options{})
	if err != nil {
		t.Skip("infeasible")
	}
	cfg := DefaultConfig(s)
	cfg.Synchronous = true
	a, _ := Run(context.Background(), s, cfg)
	b, _ := Run(context.Background(), s, cfg)
	if a.MeanLatency != b.MeanLatency {
		t.Fatal("synchronous mode not deterministic")
	}
}
