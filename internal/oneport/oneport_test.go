package oneport

import (
	"testing"

	"streamsched/internal/platform"
	"streamsched/internal/rng"
	"streamsched/internal/timeline"
)

func newSys() *System {
	return NewSystem(platform.Homogeneous(4, 1.0, 1.0))
}

func TestComputePlacement(t *testing.T) {
	s := newSys()
	txn := s.Begin()
	st, fin := txn.Compute(0, 10, 0)
	if st != 0 || fin != 10 {
		t.Fatalf("compute slot [%v,%v)", st, fin)
	}
	st2, fin2 := txn.Compute(0, 5, 0)
	if st2 != 10 || fin2 != 15 {
		t.Fatalf("second compute should serialize: [%v,%v)", st2, fin2)
	}
	txn.Commit()
	if s.Comp(0).TotalBusy() != 15 {
		t.Fatalf("committed busy = %v", s.Comp(0).TotalBusy())
	}
}

func TestComputeSpeedScaling(t *testing.T) {
	p := platform.New([]float64{2, 0.5}, [][]float64{{0, 1}, {1, 0}})
	s := NewSystem(p)
	txn := s.Begin()
	_, finFast := txn.Compute(0, 10, 0)
	_, finSlow := txn.Compute(1, 10, 0)
	txn.Commit()
	if finFast != 5 || finSlow != 20 {
		t.Fatalf("speed scaling wrong: fast=%v slow=%v", finFast, finSlow)
	}
}

func TestTransferSameProcFree(t *testing.T) {
	s := newSys()
	txn := s.Begin()
	st, fin := txn.Transfer(1, 1, 100, 7)
	if st != 7 || fin != 7 {
		t.Fatalf("intra-proc transfer [%v,%v), want [7,7)", st, fin)
	}
	txn.Commit()
	if s.Send(1).Len() != 0 || s.Recv(1).Len() != 0 {
		t.Fatal("intra-proc transfer must not reserve ports")
	}
}

func TestTransferReservesBothPorts(t *testing.T) {
	s := newSys()
	txn := s.Begin()
	st, fin := txn.Transfer(0, 1, 4, 2)
	txn.Commit()
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
	txn := s.Begin()
	_, f1 := txn.Transfer(0, 1, 5, 0)
	st2, _ := txn.Transfer(0, 2, 5, 0)
	txn.Commit()
	if st2 < f1 {
		t.Fatalf("two sends from one processor overlap: second starts %v before first ends %v", st2, f1)
	}
}

func TestOnePortSerializesReceives(t *testing.T) {
	s := newSys()
	txn := s.Begin()
	_, f1 := txn.Transfer(1, 0, 5, 0)
	st2, _ := txn.Transfer(2, 0, 5, 0)
	txn.Commit()
	if st2 < f1 {
		t.Fatalf("two receives at one processor overlap: %v < %v", st2, f1)
	}
}

func TestSendAndReceiveOverlapAllowed(t *testing.T) {
	// Bi-directional: a processor may send one message and receive another
	// simultaneously.
	s := newSys()
	txn := s.Begin()
	st1, _ := txn.Transfer(0, 1, 5, 0)
	st2, _ := txn.Transfer(2, 0, 5, 0)
	txn.Commit()
	if st1 != 0 || st2 != 0 {
		t.Fatalf("send+recv should overlap: send at %v, recv at %v", st1, st2)
	}
}

func TestComputeCommOverlapAllowed(t *testing.T) {
	s := newSys()
	txn := s.Begin()
	cs, _ := txn.Compute(0, 10, 0)
	ts, _ := txn.Transfer(0, 1, 5, 0)
	txn.Commit()
	if cs != 0 || ts != 0 {
		t.Fatalf("compute and send should overlap: %v %v", cs, ts)
	}
}

func TestTrialIsolation(t *testing.T) {
	s := newSys()
	trial := s.Begin()
	trial.Compute(0, 10, 0)
	trial.Transfer(0, 1, 5, 0)
	trial.Abort()
	if s.Comp(0).Len() != 0 || s.Send(0).Len() != 0 {
		t.Fatal("discarded trial leaked into system")
	}
}

func TestTrialSeesCommittedState(t *testing.T) {
	s := newSys()
	txn := s.Begin()
	txn.Compute(0, 10, 0)
	txn.Commit()
	trial := s.Begin()
	st, _ := trial.Compute(0, 5, 0)
	if st != 10 {
		t.Fatalf("trial ignored committed busy interval: start %v", st)
	}
	trial.Abort()
}

func TestCommitThenReuseDetected(t *testing.T) {
	s := newSys()
	txn := s.Begin()
	txn.Compute(0, 1, 0)
	txn.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on reuse")
		}
	}()
	txn.Compute(0, 1, 0)
}

func TestZeroVolumeTransferFree(t *testing.T) {
	s := newSys()
	txn := s.Begin()
	st, fin := txn.Transfer(0, 1, 0, 3)
	txn.Commit()
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
	txn := s.Begin()
	_, fin := txn.Transfer(0, 1, 8, 0)
	txn.Commit()
	if fin != 2 {
		t.Fatalf("transfer of 8 over bw 4 finished at %v, want 2", fin)
	}
}

func TestHorizon(t *testing.T) {
	s := newSys()
	txn := s.Begin()
	txn.Compute(2, 7, 0)
	txn.Transfer(0, 1, 3, 0)
	txn.Commit()
	if s.Horizon() != 7 {
		t.Fatalf("Horizon = %v", s.Horizon())
	}
}

func TestValidateAfterRandomOps(t *testing.T) {
	r := rng.New(31)
	s := NewSystem(platform.RandomHeterogeneous(r, 6, 0.5, 1, 0.5, 1, 100))
	for i := 0; i < 200; i++ {
		txn := s.Begin()
		u := platform.ProcID(r.IntN(6))
		v := platform.ProcID(r.IntN(6))
		ready := r.Uniform(0, 50)
		if r.Bool(0.5) {
			txn.Compute(u, r.Uniform(0.1, 5), ready)
		} else {
			txn.Transfer(u, v, r.Uniform(0, 100), ready)
		}
		if r.Bool(0.3) {
			txn.Abort()
		} else {
			txn.Commit()
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
		txn := s.Begin()
		st, fin := txn.Transfer(from, to, vol, ready)
		txn.Commit()
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
	// A transaction reserves in place on the committed timelines (that is
	// what lets Abort be O(changes)): its reservations are visible while it
	// is live and vanish without trace on Abort.
	s := newSys()
	txn := s.Begin()
	txn.Compute(0, 5, 0)
	if s.Comp(0).Len() != 1 {
		t.Fatal("live txn reservation not visible in place")
	}
	txn.Abort()
	if s.Comp(0).Len() != 0 {
		t.Fatal("aborted reservation survived")
	}
	txn2 := s.Begin()
	txn2.Compute(0, 5, 0)
	txn2.Commit()
	if s.Comp(0).Len() != 1 {
		t.Fatal("commit did not keep the reservation")
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
			trial := s.Begin()
			_, fin := trial.Transfer(platform.ProcID((u+1)%20), platform.ProcID(u), 50, 0)
			_, fin2 := trial.Compute(platform.ProcID(u), 1, fin)
			trial.Abort()
			if best < 0 || fin2 < best {
				best, bestU = fin2, platform.ProcID(u)
			}
		}
		txn := s.Begin()
		_, fin := txn.Transfer(platform.ProcID((int(bestU)+1)%20), bestU, 50, 0)
		_, fin2 := txn.Compute(bestU, 1, fin)
		txn.Commit()
		sinkFloat = fin2
	}
	_ = timeline.Interval{}
}
