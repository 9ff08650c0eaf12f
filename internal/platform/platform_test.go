package platform

import (
	"math"
	"testing"

	"streamsched/internal/dag"
	"streamsched/internal/rng"
)

func TestHomogeneous(t *testing.T) {
	p := Homogeneous(4, 2.0, 10.0)
	if p.NumProcs() != 4 {
		t.Fatalf("NumProcs = %d", p.NumProcs())
	}
	for u := 0; u < 4; u++ {
		if p.Speed(ProcID(u)) != 2.0 {
			t.Fatalf("speed[%d] = %v", u, p.Speed(ProcID(u)))
		}
	}
	if p.Bandwidth(0, 3) != 10.0 {
		t.Fatalf("bw = %v", p.Bandwidth(0, 3))
	}
}

func TestExecAndCommTime(t *testing.T) {
	p := Homogeneous(2, 2.0, 5.0)
	if got := p.ExecTime(10, 0); got != 5 {
		t.Fatalf("ExecTime = %v", got)
	}
	if got := p.CommTime(10, 0, 1); got != 2 {
		t.Fatalf("CommTime = %v", got)
	}
	if got := p.CommTime(10, 1, 1); got != 0 {
		t.Fatalf("intra-proc CommTime = %v, want 0", got)
	}
}

func TestTranspose(t *testing.T) {
	p := New([]float64{1, 2}, [][]float64{{0, 4}, {8, 0}})
	pt := p.Transpose()
	if pt.Bandwidth(0, 1) != 8 || pt.Bandwidth(1, 0) != 4 {
		t.Fatalf("transposed links: 0→1 %v, 1→0 %v", pt.Bandwidth(0, 1), pt.Bandwidth(1, 0))
	}
	if pt.Speed(1) != 2 || p.Bandwidth(0, 1) != 4 {
		t.Fatal("Transpose changed a speed or the original platform")
	}
	if sym := Homogeneous(3, 1, 2); sym.Transpose() != sym {
		t.Fatal("a symmetric platform was copied")
	}
}

func TestBandwidthDiagonalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Homogeneous(2, 1, 1).Bandwidth(1, 1)
}

func TestNewValidation(t *testing.T) {
	cases := []func(){
		func() { New(nil, nil) },
		func() { New([]float64{1}, nil) },
		func() { New([]float64{0}, [][]float64{{0}}) },
		func() { New([]float64{1, 1}, [][]float64{{0, 0}, {0, 0}}) },
		func() { New([]float64{1, 1}, [][]float64{{0, 1}, {1}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNewCopiesInput(t *testing.T) {
	speeds := []float64{1, 2}
	bw := [][]float64{{0, 3}, {3, 0}}
	p := New(speeds, bw)
	speeds[0] = 99
	bw[0][1] = 99
	if p.Speed(0) != 1 || p.Bandwidth(0, 1) != 3 {
		t.Fatal("platform aliases caller slices")
	}
}

func TestRandomHeterogeneousRanges(t *testing.T) {
	r := rng.New(1)
	p := RandomHeterogeneous(r, 20, 0.5, 1.0, 0.5, 1.0, 100)
	for u := 0; u < 20; u++ {
		s := p.Speed(ProcID(u))
		if s < 0.5 || s > 1.0 {
			t.Fatalf("speed %v out of range", s)
		}
	}
	for u := 0; u < 20; u++ {
		for h := 0; h < 20; h++ {
			if u == h {
				continue
			}
			b := p.Bandwidth(ProcID(u), ProcID(h))
			// delay in [0.5,1] → bandwidth in [100, 200]
			if b < 100-1e-9 || b > 200+1e-9 {
				t.Fatalf("bandwidth %v out of [100,200]", b)
			}
			if b != p.Bandwidth(ProcID(h), ProcID(u)) {
				t.Fatal("bandwidth not symmetric")
			}
		}
	}
}

func TestAggregates(t *testing.T) {
	p := New([]float64{1, 2, 4}, [][]float64{
		{0, 10, 20},
		{10, 0, 40},
		{20, 40, 0},
	})
	if p.MinSpeed() != 1 || p.MaxSpeed() != 4 {
		t.Fatalf("min/max speed wrong: %v %v", p.MinSpeed(), p.MaxSpeed())
	}
	if got := p.MeanSpeed(); math.Abs(got-7.0/3) > 1e-12 {
		t.Fatalf("MeanSpeed = %v", got)
	}
	if p.MinBandwidth() != 10 {
		t.Fatalf("MinBandwidth = %v", p.MinBandwidth())
	}
	want := (10.0 + 20 + 10 + 40 + 20 + 40) / 6
	if got := p.MeanBandwidth(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanBandwidth = %v, want %v", got, want)
	}
}

func TestSingleProcessorMeanBandwidth(t *testing.T) {
	p := New([]float64{1}, [][]float64{{0}})
	if !math.IsInf(p.MeanBandwidth(), 1) {
		t.Fatal("single-proc mean bandwidth should be +Inf")
	}
}

func TestGranularity(t *testing.T) {
	g := dag.New("g")
	a := g.AddTask("a", 10)
	b := g.AddTask("b", 10)
	g.MustAddEdge(a, b, 5)
	// slowest speed 1 → comp sum 20; slowest bw 2 → comm sum 2.5; g = 8.
	p := New([]float64{1, 2}, [][]float64{{0, 2}, {2, 0}})
	if got := Granularity(g, p); math.Abs(got-8) > 1e-12 {
		t.Fatalf("Granularity = %v, want 8", got)
	}
}

func TestGranularityNoEdges(t *testing.T) {
	g := dag.New("g")
	g.AddTask("a", 1)
	p := Homogeneous(2, 1, 1)
	if !math.IsInf(Granularity(g, p), 1) {
		t.Fatal("granularity of edgeless graph should be +Inf")
	}
}

func TestString(t *testing.T) {
	if Homogeneous(3, 1, 1).String() == "" {
		t.Fatal("empty String()")
	}
}
