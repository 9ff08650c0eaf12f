package main

// The ab subcommand compares the working tree against a base revision by
// alternating pairs of benchmark runs, the protocol that tells a change
// from host drift on a shared machine:
//
//	go run ./cmd/bench ab -base HEAD~1 -pairs 10 -bench 'BenchmarkLTF|BenchmarkRLTF'
//
// It checks the base out into a temporary git worktree (no network),
// builds the root package's test binary on both sides with `go test -c`,
// and runs the two binaries -pairs times, switching which side runs first
// every pair. For every benchmark it prints the median base and head
// ns/op, the median of the per-pair head/base ratios and how many pairs
// the head won, and it flags every custom metric whose value differs
// between the sides: deterministic work counts move only when the
// algorithm's work does. The worktree is removed afterwards.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"

	"streamsched/internal/benchjson"
)

func abMain(args []string) error {
	fs := flag.NewFlagSet("ab", flag.ExitOnError)
	var (
		base      = fs.String("base", "", "revision to compare the working tree against (required)")
		benchRe   = fs.String("bench", "BenchmarkLTF|BenchmarkRLTF|BenchmarkReplan", "benchmark regex passed to -test.bench")
		benchtime = fs.String("benchtime", "5x", "-test.benchtime value of every run")
		pairs     = fs.Int("pairs", 5, "number of alternating base/head run pairs")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bench ab -base REV [-pairs N] [-bench REGEX] [-benchtime T]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *pairs < 1 {
		fs.Usage()
		return fmt.Errorf("need -base and -pairs ≥ 1")
	}
	root, err := gitOutput("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "bench-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	wt := filepath.Join(tmp, "base")
	if _, err := gitOutput(root, "worktree", "add", "--detach", wt, *base); err != nil {
		return err
	}
	defer func() {
		if _, err := gitOutput(root, "worktree", "remove", "--force", wt); err != nil {
			fmt.Fprintln(os.Stderr, "bench ab:", err)
		}
	}()
	sides := [2]abSide{
		{name: "base", dir: wt, bin: filepath.Join(tmp, "base.test")},
		{name: "head", dir: root, bin: filepath.Join(tmp, "head.test")},
	}
	for _, s := range sides {
		fmt.Fprintf(os.Stderr, "bench ab: building the %s test binary in %s\n", s.name, s.dir)
		build := exec.Command("go", "test", "-c", "-o", s.bin, ".")
		build.Dir, build.Stdout, build.Stderr = s.dir, os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building %s: %w", s.name, err)
		}
	}
	var runs []abPair
	for i := 0; i < *pairs; i++ {
		var p abPair
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // even pairs run base first, odd pairs head first
			fmt.Fprintf(os.Stderr, "bench ab: pair %d/%d, %s\n", i+1, *pairs, sides[side].name)
			if p[side], err = sides[side].run(*benchRe, *benchtime); err != nil {
				return err
			}
		}
		runs = append(runs, p)
	}
	fmt.Printf("bench ab: base %s vs head (working tree), %d pairs, -bench '%s' -benchtime %s, GOMAXPROCS %d\n",
		*base, *pairs, *benchRe, *benchtime, runtime.GOMAXPROCS(0))
	printAB(os.Stdout, summarizeAB(runs))
	return nil
}

// abRunTimeout bounds each benchmark run, as `go test`'s default 10m
// bounds a package's tests.
const abRunTimeout = "30m"

// abSide is one side of the comparison: its test binary and the module
// root it runs in.
type abSide struct{ name, dir, bin string }

// run executes the side's benchmarks once and parses the output. Both
// sides inherit this process's environment, so they run at the same
// GOMAXPROCS. A test binary run directly has no timeout unless given
// one, so a hung run fails after abRunTimeout instead of stalling the
// comparison.
func (s abSide) run(benchRe, benchtime string) (*benchjson.File, error) {
	cmd := exec.Command(s.bin, "-test.run", "^$", "-test.bench", benchRe, "-test.benchtime", benchtime,
		"-test.benchmem", "-test.timeout", abRunTimeout)
	var out bytes.Buffer
	cmd.Dir, cmd.Stdout, cmd.Stderr = s.dir, &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s run: %w\n%s", s.name, err, out.Bytes())
	}
	return benchjson.Parse(&out)
}

// gitOutput runs git in dir and returns its trimmed standard output.
func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// abPair is one base run (index 0) and one head run (index 1).
type abPair [2]*benchjson.File

// abRow is one benchmark's comparison over all pairs.
type abRow struct {
	Name string
	// BaseNs and HeadNs are the median ns/op of each side; Ratio is the
	// median of the per-pair head/base ratios, and Wins counts the pairs
	// in which head was faster, out of Pairs.
	BaseNs, HeadNs, Ratio float64
	Wins, Pairs           int
	// BaseAllocs and HeadAllocs are the median allocs/op of each side.
	BaseAllocs, HeadAllocs float64
	// Differs lists the custom metrics whose value is not the same on
	// both sides of every pair.
	Differs []abMetric
}

// abMetric is a custom metric's median on each side; a side that never
// reported it reads NaN.
type abMetric struct {
	Unit       string
	Base, Head float64
}

// summarizeAB aggregates the pairs per benchmark, over the benchmarks that
// both sides of at least one pair ran, in name order.
func summarizeAB(pairs []abPair) []abRow {
	type sample struct {
		ns, allocs [2]float64
		metrics    [2]map[string]float64
	}
	byName := map[string][]sample{}
	for _, p := range pairs {
		idx := [2]map[string]benchjson.Result{{}, {}}
		for side, f := range p {
			for _, r := range f.Results {
				idx[side][r.Name] = r
			}
		}
		for name, b := range idx[0] {
			h, ok := idx[1][name]
			if !ok {
				continue
			}
			byName[name] = append(byName[name], sample{
				ns:      [2]float64{b.NsOp, h.NsOp},
				allocs:  [2]float64{b.AllocsOp, h.AllocsOp},
				metrics: [2]map[string]float64{b.Metrics, h.Metrics},
			})
		}
	}
	rows := make([]abRow, 0, len(byName))
	for name, ss := range byName {
		row := abRow{Name: name, Pairs: len(ss)}
		var ns, allocs [2][]float64
		ratios := make([]float64, 0, len(ss))
		units := map[string]bool{}
		for _, s := range ss {
			for side := range 2 {
				ns[side] = append(ns[side], s.ns[side])
				allocs[side] = append(allocs[side], s.allocs[side])
				for u := range s.metrics[side] {
					units[u] = true
				}
			}
			ratios = append(ratios, s.ns[1]/s.ns[0])
			if s.ns[1] < s.ns[0] {
				row.Wins++
			}
		}
		row.BaseNs, row.HeadNs, row.Ratio = median(ns[0]), median(ns[1]), median(ratios)
		row.BaseAllocs, row.HeadAllocs = median(allocs[0]), median(allocs[1])
		for u := range units {
			var vals [2][]float64
			same := true
			for _, s := range ss {
				b, bok := s.metrics[0][u]
				h, hok := s.metrics[1][u]
				same = same && bok == hok && b == h
				if bok {
					vals[0] = append(vals[0], b)
				}
				if hok {
					vals[1] = append(vals[1], h)
				}
			}
			if !same {
				row.Differs = append(row.Differs, abMetric{Unit: u, Base: median(vals[0]), Head: median(vals[1])})
			}
		}
		sort.Slice(row.Differs, func(i, j int) bool { return row.Differs[i].Unit < row.Differs[j].Unit })
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// median returns the median of xs (NaN when empty) without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printAB renders the rows as a table, then the differing metrics.
func printAB(w io.Writer, rows []abRow) {
	fmt.Fprintf(w, "%-44s %14s %14s %8s %7s %18s\n", "benchmark", "base ns/op", "head ns/op", "ratio", "wins", "allocs/op")
	for _, r := range rows {
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %8.3f %7s %18s\n", r.Name, r.BaseNs, r.HeadNs, r.Ratio,
			fmt.Sprintf("%d/%d", r.Wins, r.Pairs), fmt.Sprintf("%.0f→%.0f", r.BaseAllocs, r.HeadAllocs))
	}
	var lines []string
	for _, r := range rows {
		for _, m := range r.Differs {
			lines = append(lines, fmt.Sprintf("  %s %s: %.6g → %.6g", r.Name, m.Unit, m.Base, m.Head))
		}
	}
	if len(lines) == 0 {
		fmt.Fprintln(w, "custom metrics: identical on both sides of every pair")
		return
	}
	fmt.Fprintln(w, "custom metrics that differ (median base → head; NaN: not reported):")
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
