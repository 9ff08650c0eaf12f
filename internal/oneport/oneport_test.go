package oneport

import (
	"testing"

	"streamsched/internal/platform"
	"streamsched/internal/rng"
)

func newSys() *System {
	return NewSystem(platform.Homogeneous(4, 1.0, 1.0))
}

func TestComputePlacement(t *testing.T) {
	s := newSys()
	st, fin := s.Compute(0, 10, 0)
	if st != 0 || fin != 10 {
		t.Fatalf("compute slot [%v,%v)", st, fin)
	}
	st2, fin2 := s.Compute(0, 5, 0)
	if st2 != 10 || fin2 != 15 {
		t.Fatalf("second compute should serialize: [%v,%v)", st2, fin2)
	}
	if s.Comp(0).TotalBusy() != 15 {
		t.Fatalf("committed busy = %v", s.Comp(0).TotalBusy())
	}
}

func TestComputeSpeedScaling(t *testing.T) {
	p := platform.New([]float64{2, 0.5}, [][]float64{{0, 1}, {1, 0}})
	s := NewSystem(p)
	_, finFast := s.Compute(0, 10, 0)
	_, finSlow := s.Compute(1, 10, 0)
	if finFast != 5 || finSlow != 20 {
		t.Fatalf("speed scaling wrong: fast=%v slow=%v", finFast, finSlow)
	}
}

func TestTransferSameProcFree(t *testing.T) {
	s := newSys()
	st, fin := s.Transfer(1, 1, 100, 7)
	if st != 7 || fin != 7 {
		t.Fatalf("intra-proc transfer [%v,%v), want [7,7)", st, fin)
	}
	if s.Send(1).Len() != 0 || s.Recv(1).Len() != 0 {
		t.Fatal("intra-proc transfer must not reserve ports")
	}
}

func TestTransferReservesBothPorts(t *testing.T) {
	s := newSys()
	st, fin := s.Transfer(0, 1, 4, 2)
	if st != 2 || fin != 6 {
		t.Fatalf("transfer window [%v,%v)", st, fin)
	}
	if s.Send(0).TotalBusy() != 4 || s.Recv(1).TotalBusy() != 4 {
		t.Fatal("ports not both reserved")
	}
	if s.Send(1).Len() != 0 || s.Recv(0).Len() != 0 {
		t.Fatal("wrong ports reserved")
	}
}

func TestOnePortSerializesSends(t *testing.T) {
	s := newSys()
	_, f1 := s.Transfer(0, 1, 5, 0)
	st2, _ := s.Transfer(0, 2, 5, 0)
	if st2 < f1 {
		t.Fatalf("two sends from one processor overlap: second starts %v before first ends %v", st2, f1)
	}
}

func TestOnePortSerializesReceives(t *testing.T) {
	s := newSys()
	_, f1 := s.Transfer(1, 0, 5, 0)
	st2, _ := s.Transfer(2, 0, 5, 0)
	if st2 < f1 {
		t.Fatalf("two receives at one processor overlap: %v < %v", st2, f1)
	}
}

func TestSendAndReceiveOverlapAllowed(t *testing.T) {
	// Bi-directional: a processor may send one message and receive another
	// simultaneously.
	s := newSys()
	st1, _ := s.Transfer(0, 1, 5, 0)
	st2, _ := s.Transfer(2, 0, 5, 0)
	if st1 != 0 || st2 != 0 {
		t.Fatalf("send+recv should overlap: send at %v, recv at %v", st1, st2)
	}
}

func TestComputeCommOverlapAllowed(t *testing.T) {
	s := newSys()
	cs, _ := s.Compute(0, 10, 0)
	ts, _ := s.Transfer(0, 1, 5, 0)
	if cs != 0 || ts != 0 {
		t.Fatalf("compute and send should overlap: %v %v", cs, ts)
	}
}

func TestTrialIsolation(t *testing.T) {
	s := newSys()
	m := s.Mark()
	s.Compute(0, 10, 0)
	s.Transfer(0, 1, 5, 0)
	s.Rollback(m)
	if s.Comp(0).Len() != 0 || s.Send(0).Len() != 0 {
		t.Fatal("discarded trial leaked into system")
	}
}

func TestTrialSeesCommittedState(t *testing.T) {
	s := newSys()
	s.Compute(0, 10, 0)
	m := s.Mark()
	st, _ := s.Compute(0, 5, 0)
	if st != 10 {
		t.Fatalf("trial ignored committed busy interval: start %v", st)
	}
	s.Rollback(m)
}

func TestZeroVolumeTransferFree(t *testing.T) {
	s := newSys()
	st, fin := s.Transfer(0, 1, 0, 3)
	if st != 3 || fin != 3 {
		t.Fatalf("zero-volume transfer [%v,%v)", st, fin)
	}
	if s.Send(0).Len() != 0 {
		t.Fatal("zero-volume transfer reserved a port")
	}
}

func TestBandwidthScaling(t *testing.T) {
	p := platform.New([]float64{1, 1}, [][]float64{{0, 4}, {4, 0}})
	s := NewSystem(p)
	_, fin := s.Transfer(0, 1, 8, 0)
	if fin != 2 {
		t.Fatalf("transfer of 8 over bw 4 finished at %v, want 2", fin)
	}
}

func TestHorizon(t *testing.T) {
	s := newSys()
	s.Compute(2, 7, 0)
	s.Transfer(0, 1, 3, 0)
	if s.Horizon() != 7 {
		t.Fatalf("Horizon = %v", s.Horizon())
	}
}

func TestValidateAfterRandomOps(t *testing.T) {
	r := rng.New(31)
	s := NewSystem(platform.RandomHeterogeneous(r, 6, 0.5, 1, 0.5, 1, 100))
	for i := 0; i < 200; i++ {
		m := s.Mark()
		u := platform.ProcID(r.IntN(6))
		v := platform.ProcID(r.IntN(6))
		ready := r.Uniform(0, 50)
		if r.Bool(0.5) {
			s.Compute(u, r.Uniform(0.1, 5), ready)
		} else {
			s.Transfer(u, v, r.Uniform(0, 100), ready)
		}
		if r.Bool(0.3) {
			s.Rollback(m)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: transfers never start before their ready time and durations
// match vol/bandwidth exactly.
func TestTransferTimingProperty(t *testing.T) {
	r := rng.New(17)
	p := platform.RandomHeterogeneous(r, 5, 0.5, 1, 0.5, 1, 100)
	s := NewSystem(p)
	for i := 0; i < 300; i++ {
		from := platform.ProcID(r.IntN(5))
		to := platform.ProcID(r.IntN(5))
		vol := r.Uniform(1, 100)
		ready := r.Uniform(0, 40)
		st, fin := s.Transfer(from, to, vol, ready)
		if st < ready {
			t.Fatalf("transfer starts %v before ready %v", st, ready)
		}
		wantDur := 0.0
		if from != to {
			wantDur = vol / p.Bandwidth(from, to)
		}
		if diff := (fin - st) - wantDur; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("duration %v, want %v", fin-st, wantDur)
		}
	}
}

func TestTxnReservationsVisibleUntilAbort(t *testing.T) {
	// Reservations land in place on the timelines (that is what lets
	// Rollback be O(changes)): a trial's reservations are visible until it
	// rolls back and vanish without trace afterwards.
	s := newSys()
	m := s.Mark()
	s.Compute(0, 5, 0)
	if s.Comp(0).Len() != 1 {
		t.Fatal("trial reservation not visible in place")
	}
	s.Rollback(m)
	if s.Comp(0).Len() != 0 {
		t.Fatal("rolled-back reservation survived")
	}
	s.Compute(0, 5, 0)
	if s.Comp(0).Len() != 1 {
		t.Fatal("a reservation without rollback was not kept")
	}
}

var sinkFloat float64

func BenchmarkTrialCommitCycle(b *testing.B) {
	r := rng.New(3)
	p := platform.RandomHeterogeneous(r, 20, 0.5, 1, 0.5, 1, 100)
	s := NewSystem(p)
	for i := 0; i < b.N; i++ {
		best := -1.0
		var bestU platform.ProcID
		for u := 0; u < 20; u++ {
			m := s.Mark()
			_, fin := s.Transfer(platform.ProcID((u+1)%20), platform.ProcID(u), 50, 0)
			_, fin2 := s.Compute(platform.ProcID(u), 1, fin)
			s.Rollback(m)
			if best < 0 || fin2 < best {
				best, bestU = fin2, platform.ProcID(u)
			}
		}
		_, fin := s.Transfer(platform.ProcID((int(bestU)+1)%20), bestU, 50, 0)
		_, fin2 := s.Compute(bestU, 1, fin)
		sinkFloat = fin2
	}
}
