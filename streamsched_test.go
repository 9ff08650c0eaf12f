package streamsched_test

import (
	"context"
	"math"
	"testing"

	"streamsched"
)

// solveWith schedules through the core Solver API.
func solveWith(t *testing.T, algo streamsched.Algorithm, g *streamsched.Graph, p *streamsched.Platform, eps int, period float64) (*streamsched.Schedule, error) {
	t.Helper()
	solver, err := streamsched.NewSolver(
		streamsched.WithAlgorithm(algo),
		streamsched.WithEps(eps),
		streamsched.WithPeriod(period),
	)
	if err != nil {
		t.Fatal(err)
	}
	return solver.Solve(context.Background(), g, p)
}

func TestQuickstartFlow(t *testing.T) {
	g := streamsched.NewGraph("pipeline")
	a := g.AddTask("decode", 4)
	b := g.AddTask("filter", 6)
	g.MustAddEdge(a, b, 2)
	p := streamsched.Homogeneous(4, 1.0, 10.0)
	s, err := solveWith(t, streamsched.RLTF, g, p, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := streamsched.Simulate(context.Background(), s, streamsched.DefaultSimConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Items {
		t.Fatalf("delivered %d/%d", res.Delivered, res.Items)
	}
	if res.MeanLatency > s.LatencyBound() {
		t.Fatal("measured latency above bound")
	}
}

func TestFacadeGenerators(t *testing.T) {
	cases := []*streamsched.Graph{
		streamsched.Chain(5, 1, 1),
		streamsched.ForkJoin(3, 2, 1, 1),
		streamsched.InTree(3, 1, 1),
		streamsched.OutTree(3, 1, 1),
		streamsched.Butterfly(3, 1, 1),
		streamsched.GaussianElimination(5, 1, 1),
		streamsched.Stencil(4, 3, 1, 1),
		streamsched.Fig1Graph(),
		streamsched.Fig2Graph(),
	}
	for _, g := range cases {
		if err := g.Validate(); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
	}
}

func TestFacadeRandomStream(t *testing.T) {
	p := streamsched.RandomPlatform(7, 20, 0.5, 1, 0.5, 1)
	g := streamsched.RandomStream(11, 1.2, p)
	if got := streamsched.Granularity(g, p); math.Abs(got-1.2) > 1e-9 {
		t.Fatalf("granularity %v, want 1.2", got)
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := streamsched.Fig1Graph()
	p := streamsched.NewPlatform(
		[]float64{1.5, 1, 1.5, 1},
		[][]float64{{0, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0}},
	)
	tp, err := streamsched.TaskParallel(context.Background(), g, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Latency <= 0 {
		t.Fatal("bad task-parallel latency")
	}
	dp, err := streamsched.DataParallel(g, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dp.Throughput-1.0/20) > 1e-9 {
		t.Fatalf("data-parallel T = %v", dp.Throughput)
	}
}

func TestFacadeMinPeriod(t *testing.T) {
	g := streamsched.Chain(4, 1, 0.01)
	p := streamsched.Homogeneous(4, 1, 100)
	period, s, err := streamsched.MinPeriod(context.Background(), g, p, 0, streamsched.RLTF, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || period <= 0 {
		t.Fatal("bad MinPeriod result")
	}
	if period > 1.2 {
		t.Fatalf("min period %v too large for 4 unit tasks on 4 procs", period)
	}
}

func TestFacadeCrashSimulation(t *testing.T) {
	g := streamsched.Chain(4, 1, 1)
	p := streamsched.Homogeneous(6, 1, 1)
	s, err := solveWith(t, streamsched.LTF, g, p, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := streamsched.DefaultSimConfig(s)
	cfg.Failures = streamsched.FailureSpec{Procs: []streamsched.ProcID{0}}
	res, err := streamsched.Simulate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Items {
		t.Fatal("single crash must not lose items at ε=1")
	}
}
