package streamsched_test

// Golden pin for the paper's evaluation campaigns. experiments.Run composes
// cell generation (random platform, calibrated stream graph, crash sample),
// the LTF/R-LTF/fault-free schedulers and the simulator, so this file pins
// exact Fig. 3/4 points end to end. Regenerate with
//
//	go test -run TestGoldenCampaignPoints -update-golden .
//
// only when an intentional algorithmic change lands — never to paper over an
// equivalence break.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamsched/internal/experiments"
)

func TestGoldenCampaignPoints(t *testing.T) {
	var b strings.Builder
	for _, fig := range []struct{ eps, crashes int }{{1, 1}, {3, 2}} {
		cfg := experiments.DefaultConfig(fig.eps, fig.crashes)
		cfg.Granularities = []float64{0.6, 1.6}
		cfg.GraphsPerPoint = 2
		pts, err := experiments.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "eps=%d crashes=%d\n", fig.eps, fig.crashes)
		// %+v prints the shortest float that round-trips, and NaN as NaN.
		for _, p := range pts {
			fmt.Fprintf(&b, "%+v\n", p)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "golden", "campaign_points.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("campaign points diverge from golden %s:\n got %s\nwant %s", path, got, want)
	}
}
