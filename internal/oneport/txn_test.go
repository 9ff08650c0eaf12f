package oneport

import (
	"slices"
	"testing"

	"streamsched/internal/platform"
	"streamsched/internal/rng"
	"streamsched/internal/timeline"
)

func TestMarkRollback(t *testing.T) {
	s := NewSystem(platform.Homogeneous(3, 1, 1))
	s.Compute(0, 5, 0)
	s.Transfer(0, 1, 3, 5)
	mark := s.Mark()

	s.Compute(0, 5, 0)
	s.Transfer(1, 2, 4, 0)
	if s.Comp(0).Len() != 2 || s.Send(1).Len() != 1 {
		t.Fatal("post-mark work missing")
	}

	s.Rollback(mark)
	if s.Comp(0).Len() != 1 {
		t.Fatalf("comp not rolled back: %d intervals", s.Comp(0).Len())
	}
	if s.Send(1).Len() != 0 || s.Recv(2).Len() != 0 {
		t.Fatal("ports not rolled back")
	}
	if s.Send(0).Len() != 1 || s.Recv(1).Len() != 1 {
		t.Fatal("pre-mark reservations lost")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMarkReusableAcrossRollbacks(t *testing.T) {
	s := NewSystem(platform.Homogeneous(2, 1, 1))
	mark := s.Mark()
	for i := 0; i < 3; i++ {
		s.Compute(0, 5, 0)
		s.Rollback(mark)
		if s.Comp(0).Len() != 0 {
			t.Fatal("rollback left residue")
		}
	}
	// Work again after the rollbacks.
	st, fin := s.Compute(0, 5, 0)
	if st != 0 || fin != 5 {
		t.Fatalf("post-rollback placement [%v,%v)", st, fin)
	}
}

// TestRollbackPastJournalPanics pins the mark guard: rolling back to a mark
// taken before an earlier rollback (non-LIFO use) must panic instead of
// silently resurrecting undone journal entries.
func TestRollbackPastJournalPanics(t *testing.T) {
	s := NewSystem(platform.Homogeneous(2, 1, 1))
	s.Compute(0, 5, 0)
	stale := s.Mark() // position 1
	s.Rollback(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Rollback past the journal did not panic")
		}
	}()
	s.Rollback(stale)
}

// oracleSnap is the old deep-copy snapshot semantics, kept as the test
// oracle: an independent copy of every timeline's reservations.
type oracleSnap struct {
	comp, send, recv []*timeline.Timeline
}

// copyOf returns an independent copy of tl's reservations.
func copyOf(tl *timeline.Timeline) *timeline.Timeline {
	c := &timeline.Timeline{}
	for _, iv := range tl.Busy() {
		c.MustReserve(iv)
	}
	return c
}

func snapOracle(s *System) *oracleSnap {
	m := s.Platform().NumProcs()
	o := &oracleSnap{}
	for u := 0; u < m; u++ {
		pu := platform.ProcID(u)
		o.comp = append(o.comp, copyOf(s.Comp(pu)))
		o.send = append(o.send, copyOf(s.Send(pu)))
		o.recv = append(o.recv, copyOf(s.Recv(pu)))
	}
	return o
}

func requireEqualOracle(t *testing.T, s *System, o *oracleSnap, what string) {
	t.Helper()
	m := s.Platform().NumProcs()
	for u := 0; u < m; u++ {
		pu := platform.ProcID(u)
		for _, pair := range []struct {
			name string
			got  *timeline.Timeline
			want *timeline.Timeline
		}{
			{"comp", s.Comp(pu), o.comp[u]},
			{"send", s.Send(pu), o.send[u]},
			{"recv", s.Recv(pu), o.recv[u]},
		} {
			if !slices.Equal(pair.got.Busy(), pair.want.Busy()) {
				t.Fatalf("%s: proc %d %s diverged from deep-copy oracle:\n got %+v\nwant %+v",
					what, u, pair.name, pair.got.Busy(), pair.want.Busy())
			}
		}
	}
}

// randomOp performs one random reservation on s.
func randomOp(r *rng.Source, s *System, m int) {
	u := platform.ProcID(r.IntN(m))
	v := platform.ProcID(r.IntN(m))
	ready := r.Uniform(0, 40)
	if r.Bool(0.5) {
		s.Compute(u, r.Uniform(0.1, 4), ready)
	} else {
		s.Transfer(u, v, r.Uniform(0, 60), ready)
	}
}

// TestJournalMatchesDeepCopyOracle interleaves reservations, trials
// (Mark … reservations … Rollback) and nested Mark/Rollback scopes randomly
// and checks after every unwind that the journaled timelines are
// byte-identical to the deep-copy snapshot the old implementation would
// have restored.
func TestJournalMatchesDeepCopyOracle(t *testing.T) {
	const m = 5
	r := rng.New(5)
	s := NewSystem(platform.RandomHeterogeneous(r, m, 0.5, 1, 0.5, 1, 10))

	type frame struct {
		mark   Mark
		oracle *oracleSnap
	}
	var stack []frame
	for i := 0; i < 3000; i++ {
		switch r.IntN(6) {
		case 0: // open an outer rollback scope (the retry-ladder pattern)
			if len(stack) < 4 {
				stack = append(stack, frame{s.Mark(), snapOracle(s)})
			}
		case 1: // unwind the innermost scope
			if n := len(stack); n > 0 {
				f := stack[n-1]
				stack = stack[:n-1]
				s.Rollback(f.mark)
				requireEqualOracle(t, s, f.oracle, "Rollback")
			}
		case 2: // keep the innermost scope's work
			if n := len(stack); n > 0 {
				stack = stack[:n-1]
			}
		default: // a few reservations, rolled back (a trial) or kept
			oracle := snapOracle(s)
			mark := s.Mark()
			for k := r.IntN(3); k >= 0; k-- {
				randomOp(r, s, m)
			}
			if r.Bool(0.4) {
				s.Rollback(mark)
				requireEqualOracle(t, s, oracle, "trial Rollback")
			}
		}
	}
	for n := len(stack); n > 0; n = len(stack) {
		f := stack[n-1]
		stack = stack[:n-1]
		s.Rollback(f.mark)
		requireEqualOracle(t, s, f.oracle, "final unwind")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
