// Command bench runs the repository benchmark suite and records the results
// as a schema'd, commit-comparable JSON artifact (internal/benchjson). It is
// the single entry point for performance measurement — local runs and the CI
// bench job invoke it identically (see Makefile), so recorded trajectories
// compare like for like.
//
//	go run ./cmd/bench                                  # run, write BENCH_<rev>.json
//	go run ./cmd/bench -out BENCH_baseline.json         # refresh the committed baseline
//	go run ./cmd/bench -baseline BENCH_baseline.json    # run and gate: exit 1 on regression
//	go run ./cmd/bench -baseline BENCH_baseline.json -input results.txt
//	go run ./cmd/bench trend -dir artifacts             # ns/op & allocs/op history
//	go run ./cmd/bench ab -base HEAD~1 -pairs 10        # alternating pairs vs a base revision
//
// The gate fails when any baseline benchmark regresses by more than
// -ns-tolerance in ns/op (default 25%), disappears from the current run, or
// — when -alloc-tolerance ≥ 0 — regresses in allocs/op. Custom metrics are
// gated per unit with repeatable -metric-tolerance unit=tol flags (e.g.
// -metric-tolerance wakes/op=0.10 reds simulator wake-count growth above
// 10%); ungated units are recorded and printed but never fail. Absolute
// ns/op are machine-dependent; the committed baseline is refreshed from CI
// hardware (see DESIGN.md §Performance), while allocs/op and deterministic
// custom metrics compare across any machine.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"streamsched/internal/benchjson"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trend" {
		if err := trendMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench trend:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "ab" {
		if err := abMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench ab:", err)
			os.Exit(1)
		}
		return
	}
	var (
		benchRe   = flag.String("bench", "BenchmarkLTF|BenchmarkRLTF|BenchmarkSim|BenchmarkTimelineReserve", "benchmark regex passed to go test -bench")
		benchtime = flag.String("benchtime", "5x", "go test -benchtime value")
		count     = flag.Int("count", 1, "go test -count value (runs are averaged)")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		out       = flag.String("out", "", "output path (default BENCH_<rev>.json)")
		baseline  = flag.String("baseline", "", "baseline JSON to gate against")
		nsTol     = flag.Float64("ns-tolerance", 0.25, "allowed fractional ns/op regression vs baseline")
		allocTol  = flag.Float64("alloc-tolerance", -1, "allowed fractional allocs/op regression vs baseline (negative: off)")
		input     = flag.String("input", "", "parse existing `go test -bench` output from this file instead of running (\"-\" for stdin)")
		quiet     = flag.Bool("quiet", false, "suppress the streamed benchmark output")
	)
	var metricTol metricTolFlag
	flag.Var(&metricTol, "metric-tolerance", "allowed fractional growth for a custom metric, as unit=tol (e.g. wakes/op=0.10); repeatable")
	flag.Parse()
	if err := run(*benchRe, *benchtime, *pkg, *out, *baseline, *input, *nsTol, *allocTol, metricTol.m, *count, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricTolFlag accumulates repeated -metric-tolerance unit=tol pairs.
type metricTolFlag struct{ m map[string]float64 }

func (f *metricTolFlag) String() string {
	pairs := make([]string, 0, len(f.m))
	for unit, tol := range f.m {
		pairs = append(pairs, fmt.Sprintf("%s=%g", unit, tol))
	}
	return strings.Join(pairs, ",")
}

func (f *metricTolFlag) Set(s string) error {
	unit, tol, ok := strings.Cut(s, "=")
	if !ok || unit == "" {
		return fmt.Errorf("want unit=tolerance, got %q", s)
	}
	v, err := strconv.ParseFloat(tol, 64)
	if err != nil {
		return fmt.Errorf("bad tolerance in %q: %w", s, err)
	}
	if f.m == nil {
		f.m = map[string]float64{}
	}
	f.m[unit] = v
	return nil
}

func run(benchRe, benchtime, pkg, out, baseline, input string, nsTol, allocTol float64, metricTol map[string]float64, count int, quiet bool) error {
	var raw []byte
	var err error
	switch input {
	case "":
		raw, err = runBenchmarks(benchRe, benchtime, pkg, count, quiet)
	case "-":
		raw, err = io.ReadAll(os.Stdin)
	default:
		raw, err = os.ReadFile(input)
	}
	if err != nil {
		return err
	}

	f, err := benchjson.Parse(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if len(f.Results) == 0 {
		return fmt.Errorf("no benchmark results matched %q", benchRe)
	}
	f.Rev = gitRev()
	f.GoVersion = runtime.Version()
	f.GOOS = runtime.GOOS
	f.GOARCH = runtime.GOARCH
	f.Date = time.Now().UTC().Format(time.RFC3339)

	if out == "" {
		out = "BENCH_" + f.Rev + ".json"
	}
	of, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := benchjson.Encode(of, f); err != nil {
		of.Close()
		return err
	}
	if err := of.Close(); err != nil {
		return err
	}
	fmt.Printf("bench: recorded %d benchmarks to %s (rev %s)\n", len(f.Results), out, f.Rev)

	if baseline == "" {
		return nil
	}
	bf, err := os.Open(baseline)
	if err != nil {
		return err
	}
	defer bf.Close()
	base, err := benchjson.Decode(bf)
	if err != nil {
		return fmt.Errorf("baseline %s: %w", baseline, err)
	}
	deltas := benchjson.Compare(base, f)
	for _, d := range deltas {
		fmt.Println("bench:", d.Describe())
	}
	if bad := benchjson.Regressions(deltas, nsTol, allocTol, metricTol); len(bad) > 0 {
		msgs := make([]string, len(bad))
		for i, d := range bad {
			msgs[i] = d.Describe()
		}
		return fmt.Errorf("%d regression(s) vs %s (ns tolerance %+.0f%%):\n  %s",
			len(bad), baseline, nsTol*100, strings.Join(msgs, "\n  "))
	}
	fmt.Printf("bench: no regressions vs %s (%d benchmarks within %+.0f%% ns/op)\n", baseline, len(deltas), nsTol*100)
	return nil
}

// runBenchmarks shells out to `go test -bench`, streaming output so long
// runs stay observable, and returns the captured text.
func runBenchmarks(benchRe, benchtime, pkg string, count int, quiet bool) ([]byte, error) {
	args := []string{"test", "-run", "^$",
		"-bench", benchRe,
		"-benchtime", benchtime,
		"-benchmem",
		fmt.Sprintf("-count=%d", count),
		pkg,
	}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	if quiet {
		cmd.Stdout = &buf
	} else {
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return buf.Bytes(), nil
}

// gitRev returns the short HEAD revision, with a -dirty marker when the
// working tree differs from HEAD (the measured code is then not the commit's
// code — a record must not misattribute its numbers), or "worktree" outside
// git.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "worktree"
	}
	rev := strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err == nil && len(bytes.TrimSpace(status)) > 0 {
		rev += "-dirty"
	}
	return rev
}
