package benchjson

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: streamsched
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkLTF/eps=1-8         	     100	   3075040 ns/op	  547072 B/op	    3149 allocs/op
BenchmarkLTF/eps=3-8         	      50	   8556014 ns/op	 2814128 B/op	    6347 allocs/op
BenchmarkAblationOneToOne/one-to-one-8 	 200	  52341 ns/op	       7.000 comms
BenchmarkSimulator/dataflow-8          	 300	  11111 ns/op
PASS
ok  	streamsched	1.234s
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", f.CPU)
	}
	if len(f.Results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(f.Results))
	}
	for i := 1; i < len(f.Results); i++ {
		if f.Results[i-1].Name >= f.Results[i].Name {
			t.Errorf("results not sorted: %q before %q", f.Results[i-1].Name, f.Results[i].Name)
		}
	}
	byName := map[string]Result{}
	for _, r := range f.Results {
		byName[r.Name] = r
	}
	ltf1, ok := byName["BenchmarkLTF/eps=1"]
	if !ok {
		t.Fatalf("missing BenchmarkLTF/eps=1 in %v", f.Results)
	}
	if ltf1.Runs != 100 || ltf1.NsOp != 3075040 || ltf1.BytesOp != 547072 || ltf1.AllocsOp != 3149 {
		t.Errorf("LTF/eps=1 = %+v", ltf1)
	}
	abl := byName["BenchmarkAblationOneToOne/one-to-one"]
	if abl.Metrics["comms"] != 7 {
		t.Errorf("custom metric comms = %v", abl.Metrics)
	}
	sim := byName["BenchmarkSimulator/dataflow"]
	if sim.AllocsOp != 0 || sim.NsOp != 11111 {
		t.Errorf("simulator = %+v", sim)
	}
}

func TestParseAggregatesRepeatedRuns(t *testing.T) {
	// ns/op keeps the fastest repetition (noise is additive); memory is
	// averaged.
	out := `BenchmarkX-4 	 100	 1000 ns/op	 10 allocs/op
BenchmarkX-4 	 100	 3000 ns/op	 30 allocs/op
`
	f, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Results) != 1 {
		t.Fatalf("got %d results", len(f.Results))
	}
	r := f.Results[0]
	if r.NsOp != 1000 || r.AllocsOp != 20 || r.Runs != 200 {
		t.Errorf("aggregated = %+v", r)
	}
}

func TestStripProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkLTF/eps=1-8":                 "BenchmarkLTF/eps=1",
		"BenchmarkAblationChunk/B=1-16":        "BenchmarkAblationChunk/B=1",
		"BenchmarkAblationOneToOne/one-to-one": "BenchmarkAblationOneToOne/one-to-one",
		"BenchmarkX":                           "BenchmarkX",
	} {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	f.Rev = "abc1234"
	var buf bytes.Buffer
	if err := Encode(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rev != "abc1234" || len(g.Results) != len(f.Results) {
		t.Errorf("round trip lost data: %+v", g)
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestCompareAndRegressions(t *testing.T) {
	base := &File{Results: []Result{
		{Name: "A", NsOp: 1000, AllocsOp: 100},
		{Name: "B", NsOp: 1000, AllocsOp: 100},
		{Name: "Gone", NsOp: 500},
	}}
	cur := &File{Results: []Result{
		{Name: "A", NsOp: 1200, AllocsOp: 100}, // +20% ns: inside a 25% gate
		{Name: "B", NsOp: 1300, AllocsOp: 100}, // +30% ns: regression
		{Name: "New", NsOp: 1},                 // no baseline: ignored
	}}
	deltas := Compare(base, cur)
	if len(deltas) != 3 {
		t.Fatalf("deltas = %v", deltas)
	}
	bad := Regressions(deltas, 0.25, -1, nil)
	if len(bad) != 2 {
		t.Fatalf("regressions = %v", bad)
	}
	names := map[string]bool{}
	for _, d := range bad {
		names[d.Name] = true
	}
	if !names["B"] || !names["Gone"] {
		t.Errorf("wrong regressions: %v", bad)
	}
	// Alloc gate catches alloc-only regressions.
	cur.Results[0].AllocsOp = 200
	bad = Regressions(Compare(base, cur), 0.25, 0.10, nil)
	names = map[string]bool{}
	for _, d := range bad {
		names[d.Name] = true
	}
	if !names["A"] {
		t.Errorf("alloc regression missed: %v", bad)
	}
}

func TestCompareAndRegressionsCustomMetrics(t *testing.T) {
	base := &File{Results: []Result{
		{Name: "A", NsOp: 1000, Metrics: map[string]float64{"wakes/op": 100, "stages": 5}},
		{Name: "B", NsOp: 1000, Metrics: map[string]float64{"wakes/op": 100}},
	}}
	cur := &File{Results: []Result{
		{Name: "A", NsOp: 1000, Metrics: map[string]float64{"wakes/op": 105, "stages": 9}}, // +5% wakes: inside a 10% gate
		{Name: "B", NsOp: 1000, Metrics: map[string]float64{"wakes/op": 120}},              // +20% wakes: regression
	}}
	deltas := Compare(base, cur)
	if got := deltas[0].MetricRatios["wakes/op"]; got != 1.05 {
		t.Fatalf("A wakes ratio = %v", got)
	}
	// Ungated units never fail the gate, however much they move.
	if bad := Regressions(deltas, 0.25, -1, nil); len(bad) != 0 {
		t.Fatalf("no-gate regressions = %v", bad)
	}
	bad := Regressions(deltas, 0.25, -1, map[string]float64{"wakes/op": 0.10})
	if len(bad) != 1 || bad[0].Name != "B" {
		t.Fatalf("wakes-gate regressions = %v", bad)
	}
	if got := bad[0].Describe(); !strings.Contains(got, "wakes/op ×1.200") {
		t.Errorf("Describe() = %q, want wakes ratio", got)
	}
}

// TestRegressionsExactMetricGate covers the cases of a custom-metric gate:
// tolerance 0 fails on any change in either direction, a nonzero tolerance
// checks growth only, a zero baseline fails once the count appears and
// passes while it stays zero, and a benchmark that does not report the
// unit stays ungated rather than reading as a ratio of 0.
func TestRegressionsExactMetricGate(t *testing.T) {
	base := &File{Results: []Result{
		{Name: "Fall", NsOp: 1000, Metrics: map[string]float64{"events/op": 47000, "wakes/op": 100}},
		{Name: "Rise", NsOp: 1000, Metrics: map[string]float64{"events/op": 47000, "wakes/op": 100}},
		{Name: "Same", NsOp: 1000, Metrics: map[string]float64{"events/op": 47000, "wakes/op": 100}},
		{Name: "Unreported", NsOp: 1000},
		{Name: "FromZero", NsOp: 1000, Metrics: map[string]float64{"events/op": 0, "wakes/op": 0}},
		{Name: "StillZero", NsOp: 1000, Metrics: map[string]float64{"events/op": 0, "wakes/op": 0}},
	}}
	cur := &File{Results: []Result{
		{Name: "Fall", NsOp: 1000, Metrics: map[string]float64{"events/op": 40000, "wakes/op": 50}},
		{Name: "Rise", NsOp: 1000, Metrics: map[string]float64{"events/op": 50000, "wakes/op": 100}},
		{Name: "Same", NsOp: 1000, Metrics: map[string]float64{"events/op": 47000, "wakes/op": 105}},
		{Name: "Unreported", NsOp: 1000},
		{Name: "FromZero", NsOp: 1000, Metrics: map[string]float64{"events/op": 3, "wakes/op": 3}},
		{Name: "StillZero", NsOp: 1000, Metrics: map[string]float64{"events/op": 0, "wakes/op": 0}},
	}}
	deltas := Compare(base, cur)
	if _, ok := deltas[3].MetricRatios["events/op"]; ok {
		t.Fatalf("unreported unit has a ratio: %v", deltas[3].MetricRatios)
	}
	names := func(ds []Delta) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name)
		}
		return out
	}
	// Tolerance 0: the fall (×0.851) fails as well as the rise, and so
	// does a count appearing where the baseline had none.
	if got := names(Regressions(deltas, 0.25, -1, map[string]float64{"events/op": 0})); !slices.Equal(got, []string{"Fall", "Rise", "FromZero"}) {
		t.Fatalf("events/op=0 gate flags %v, want [Fall Rise FromZero]", got)
	}
	// A nonzero tolerance checks growth only: halving wakes passes, +5% is
	// inside a 10% gate, and growth from zero is unbounded.
	if got := names(Regressions(deltas, 0.25, -1, map[string]float64{"wakes/op": 0.10})); !slices.Equal(got, []string{"FromZero"}) {
		t.Fatalf("wakes/op=0.10 gate flags %v, want [FromZero]", got)
	}
}

func TestParseRejectsMalformedValue(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX-4 100 notanumber ns/op\n")); err == nil {
		t.Fatal("malformed value accepted")
	}
}
