package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"streamsched/internal/benchjson"
)

// canned parses one `go test -bench` output.
func canned(t *testing.T, out string) *benchjson.File {
	t.Helper()
	f, err := benchjson.Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSummarizeAB(t *testing.T) {
	base := []string{
		`BenchmarkLTF/eps=1-2  5  2000000 ns/op  25.00 fallbacks/op  3987 trials/op  1612 allocs/op
BenchmarkOnlyBase-2  5  10 ns/op`,
		`BenchmarkLTF/eps=1-2  5  2400000 ns/op  25.00 fallbacks/op  3987 trials/op  1612 allocs/op
BenchmarkOnlyBase-2  5  10 ns/op`,
		`BenchmarkLTF/eps=1-2  5  1800000 ns/op  25.00 fallbacks/op  3987 trials/op  1612 allocs/op
BenchmarkOnlyBase-2  5  10 ns/op`,
	}
	head := []string{
		`BenchmarkLTF/eps=1-2  5  1500000 ns/op  25.00 fallbacks/op  2256 pruned/op  3056 trials/op  1610 allocs/op`,
		`BenchmarkLTF/eps=1-2  5  2000000 ns/op  25.00 fallbacks/op  2256 pruned/op  3056 trials/op  1610 allocs/op`,
		`BenchmarkLTF/eps=1-2  5  1900000 ns/op  25.00 fallbacks/op  2256 pruned/op  3056 trials/op  1612 allocs/op`,
	}
	var pairs []abPair
	for i := range base {
		pairs = append(pairs, abPair{canned(t, base[i]), canned(t, head[i])})
	}
	rows := summarizeAB(pairs)
	if len(rows) != 1 {
		t.Fatalf("rows %+v: want only the benchmark both sides ran", rows)
	}
	r := rows[0]
	if r.Name != "BenchmarkLTF/eps=1" || r.Pairs != 3 {
		t.Fatalf("row %s over %d pairs", r.Name, r.Pairs)
	}
	// Per-pair ratios 0.75, 0.8333 and 1.0556: head faster in two pairs.
	if r.BaseNs != 2000000 || r.HeadNs != 1900000 || math.Abs(r.Ratio-2000000.0/2400000) > 1e-12 || r.Wins != 2 {
		t.Fatalf("ns/op base %v head %v ratio %v wins %d", r.BaseNs, r.HeadNs, r.Ratio, r.Wins)
	}
	if r.BaseAllocs != 1612 || r.HeadAllocs != 1610 {
		t.Fatalf("allocs/op base %v head %v", r.BaseAllocs, r.HeadAllocs)
	}
	// fallbacks/op is equal everywhere; trials/op moved, and pruned/op is
	// new on the head side.
	if len(r.Differs) != 2 {
		t.Fatalf("differing metrics %+v, want pruned/op and trials/op", r.Differs)
	}
	if d := r.Differs[0]; d.Unit != "pruned/op" || !math.IsNaN(d.Base) || d.Head != 2256 {
		t.Fatalf("pruned/op %+v", d)
	}
	if d := r.Differs[1]; d.Unit != "trials/op" || d.Base != 3987 || d.Head != 3056 {
		t.Fatalf("trials/op %+v", d)
	}

	var buf bytes.Buffer
	printAB(&buf, rows)
	for _, want := range []string{"BenchmarkLTF/eps=1", "2/3", "trials/op: 3987 → 3056", "pruned/op: NaN → 2256"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestSummarizeABIdenticalMetrics(t *testing.T) {
	run := `BenchmarkSim/small-2  5  1000 ns/op  120 events/op`
	rows := summarizeAB([]abPair{{canned(t, run), canned(t, run)}})
	if len(rows) != 1 || len(rows[0].Differs) != 0 || rows[0].Wins != 0 || rows[0].Ratio != 1 {
		t.Fatalf("rows %+v: want one tie with no differing metric", rows)
	}
	var buf bytes.Buffer
	printAB(&buf, rows)
	if !strings.Contains(buf.String(), "identical on both sides") {
		t.Fatalf("report:\n%s", buf.String())
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Fatalf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Fatal("median reordered its input")
	}
}
