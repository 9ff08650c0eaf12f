// Fixture for txncheck: each want comment pins one diagnostic.
package txnfix

import (
	"streamsched/internal/mapper"
	"streamsched/internal/oneport"
)

func use(interface{}) {}

// --- straight-line resolution: ok ---

func commitStraight(s *oneport.System) {
	txn := s.Begin()
	txn.Compute(1)
	txn.Commit()
}

func deferAbort(s *oneport.System) float64 {
	txn := s.Begin()
	defer txn.Abort()
	return txn.Compute(1)
}

func deferClosureAbort(s *oneport.System) {
	txn := s.Begin()
	defer func() { txn.Abort() }()
	txn.Compute(1)
}

// --- discarded results ---

func discarded(s *oneport.System) {
	s.Begin() // want `result of Begin discarded`
}

func discardedBlank(s *oneport.System) {
	_ = s.Begin() // want `result of Begin discarded`
}

func escapesDirectly(s *oneport.System) {
	use(s.Begin()) // want `result of Begin escapes directly`
}

// --- leaks on some path ---

func leakEarlyReturn(s *oneport.System, bad bool) {
	txn := s.Begin() // want `may not reach Commit or Abort on every path`
	if bad {
		return
	}
	txn.Commit()
}

func leakFallsOffEnd(s *oneport.System) {
	txn := s.Begin() // want `may not reach Commit or Abort on every path`
	txn.Compute(1)
}

func leakOneBranch(s *oneport.System, ok bool) {
	txn := s.Begin() // want `may not reach Commit or Abort on every path`
	if ok {
		txn.Commit()
	}
}

func leakSwitchNoDefault(s *oneport.System, k int) {
	txn := s.Begin() // want `may not reach Commit or Abort on every path`
	switch k {
	case 0:
		txn.Commit()
	case 1:
		txn.Abort()
	}
}

// --- resolution on every path: ok ---

func bothBranches(s *oneport.System, ok bool) {
	txn := s.Begin()
	if ok {
		txn.Commit()
	} else {
		txn.Abort()
	}
}

func switchWithDefault(s *oneport.System, k int) {
	txn := s.Begin()
	switch k {
	case 0:
		txn.Commit()
	default:
		txn.Abort()
	}
}

func perIteration(s *oneport.System, n int) {
	for i := 0; i < n; i++ {
		txn := s.Begin()
		txn.Compute(1)
		txn.Abort()
	}
}

func breakAfterResolve(s *oneport.System, n int) {
	for i := 0; i < n; i++ {
		txn := s.Begin()
		if i > 2 {
			txn.Abort()
			break
		}
		txn.Commit()
	}
}

func leakViaBreak(s *oneport.System, n int) {
	for i := 0; i < n; i++ {
		txn := s.Begin() // want `may not reach Commit or Abort on every path`
		if i > 2 {
			break
		}
		txn.Commit()
	}
}

func panicPath(s *oneport.System, bad bool) {
	txn := s.Begin()
	if bad {
		panic("bad input") // terminates: not a leak
	}
	txn.Commit()
}

// --- escaping Txn values ---

func escapeCopy(s *oneport.System) {
	txn := s.Begin()
	t2 := txn // want `transaction copied to another variable`
	t2.Commit()
	txn.Commit()
}

func escapeReturn(s *oneport.System) oneport.Txn {
	txn := s.Begin() // want `may not reach Commit or Abort on every path`
	return txn       // want `transaction returned from the function`
}

func escapeArg(s *oneport.System) {
	txn := s.Begin()
	use(txn) // want `transaction passed by value`
	txn.Commit()
}

// --- closures are separate scopes ---

func resolveInClosureNotCounted(s *oneport.System) {
	txn := s.Begin() // want `may not reach Commit or Abort on every path`
	f := func() { txn.Abort() }
	_ = f
}

func beginInsideClosure(s *oneport.System) func() {
	return func() {
		txn := s.Begin() // want `may not reach Commit or Abort on every path`
		txn.Compute(1)
	}
}

// --- mapper transactions ---

func mapperOK(st *mapper.State, ok bool) {
	st.Begin(3)
	if ok {
		st.Commit()
	} else {
		st.Abort()
	}
}

func mapperLeak(st *mapper.State, bad bool) {
	st.Begin(3) // want `mapper transaction begun here may not reach Commit or Abort`
	if bad {
		return
	}
	st.Commit()
}

// The reverse-mode lookahead shape: a window transaction per variant with
// the per-task retry ladder nested inside it.
func mapperNested(st *mapper.State, window []int) {
	for v := 0; v < 2; v++ {
		st.Begin(window...)
		for _, t := range window {
			st.Begin(t)
			if t%2 == 0 {
				st.Commit()
				continue
			}
			st.Abort()
		}
		st.Abort()
	}
}

func mapperNestedLeak(st *mapper.State, window []int, bad bool) {
	st.Begin(window...) // want `mapper transaction begun here may not reach Commit or Abort`
	for _, t := range window {
		st.Begin(t) // want `mapper transaction begun here may not reach Commit or Abort`
		if bad {
			return
		}
		st.Commit()
	}
	st.Commit()
}

// --- suppression ---

func suppressed(s *oneport.System) {
	//nolint:txncheck // fixture: deliberate leak kept for the escape hatch test
	txn := s.Begin()
	txn.Compute(1)
}
