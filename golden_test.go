package streamsched_test

// Golden equivalence tests for the scheduling hot path. The files under
// testdata/golden were generated by the pre-optimization mapper (hash-map
// vulnerability sets, full re-sort ready list, per-call allocation); the
// refactored path must reproduce them byte for byte. Regenerate with
//
//	go test -run TestGoldenSchedules -update-golden .
//
// only when an intentional algorithmic change lands — never to paper over an
// equivalence break.

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"streamsched/internal/dag"
	"streamsched/internal/ltf"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/rltf"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden files")

// goldenCase pins one seeded instance. Periods are generous enough that every
// case is feasible for both algorithms at every ε.
type goldenCase struct {
	name string
	g    *dag.Graph
	p    *platform.Platform
	eps  int
	per  float64
	look int // ltf/rltf Options.Lookahead; 0 is the plain loop
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, eps := range []int{0, 1, 3} {
		// Heterogeneous platform, paper-style random stream graph.
		r := rng.New(31)
		hp := platform.RandomHeterogeneous(r, 12, 0.5, 1, 0.5, 1, 100)
		cfg := randgraph.DefaultStreamConfig()
		cfg.MinTasks, cfg.MaxTasks = 30, 40
		hg := randgraph.Stream(r, cfg, hp)
		cases = append(cases, goldenCase{"het_stream", hg, hp, eps, 20 * float64(eps+1), 0})

		// Homogeneous platform, structured butterfly graph.
		cases = append(cases, goldenCase{
			"hom_butterfly",
			randgraph.Butterfly(3, 3, 1),
			platform.Homogeneous(10, 1, 1),
			eps,
			15 * float64(eps+1),
			0,
		})
	}
	// Speculative lookahead windows (WithLookahead(k)) over the same
	// instances: no other test pins k > 1 output byte for byte.
	n := len(cases)
	for _, k := range []int{2, 4} {
		for _, tc := range cases[:n] {
			tc.look = k
			cases = append(cases, tc)
		}
	}
	return cases
}

func TestGoldenSchedules(t *testing.T) {
	for _, tc := range goldenCases() {
		for _, alg := range []struct {
			name string
			run  func() (*schedule.Schedule, error)
		}{
			{"ltf", func() (*schedule.Schedule, error) {
				return ltf.Schedule(context.Background(), tc.g, tc.p, tc.eps, tc.per, ltf.Options{Lookahead: tc.look})
			}},
			{"rltf", func() (*schedule.Schedule, error) {
				return rltf.Schedule(context.Background(), tc.g, tc.p, tc.eps, tc.per, rltf.Options{Lookahead: tc.look})
			}},
		} {
			name := alg.name + "_" + tc.name + "_eps" + itoa(tc.eps)
			if tc.look > 1 {
				name += "_look" + itoa(tc.look)
			}
			t.Run(name, func(t *testing.T) {
				s, err := alg.run()
				if err != nil {
					t.Fatalf("schedule: %v", err)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("invalid schedule: %v", err)
				}
				got, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				path := filepath.Join("testdata", "golden", name+".json")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update-golden): %v", err)
				}
				if string(got) != string(want) {
					t.Errorf("schedule diverges from golden %s (%d vs %d bytes); the refactored hot path must be byte-identical", path, len(got), len(want))
				}
			})
		}
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}
