// Package benchjson turns `go test -bench` output into a schema'd,
// commit-comparable JSON artifact. The ROADMAP treats scheduler speed as a
// first-class metric; cmd/bench uses this package to record every
// benchmark's ns/op, B/op, allocs/op and custom metrics (comms, stages, …)
// into BENCH_<rev>.json files, and CI compares the current run against the
// committed BENCH_baseline.json to gate performance regressions.
package benchjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies the file format; bump on incompatible changes.
const Schema = "streamsched-bench/v1"

// File is one recorded benchmark run.
type File struct {
	Schema    string `json:"schema"`
	Rev       string `json:"rev"`                 // git revision the run measured
	GoVersion string `json:"goVersion,omitempty"` // runtime.Version() of the run
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	CPU       string `json:"cpu,omitempty"`  // "cpu:" line of the bench output
	Date      string `json:"date,omitempty"` // RFC 3339, informational only
	// Results are sorted by name for stable diffs.
	Results []Result `json:"results"`
}

// Result is one benchmark line.
type Result struct {
	// Name is the benchmark name with the -N GOMAXPROCS suffix stripped, so
	// results compare across machines with different core counts.
	Name string  `json:"name"`
	Runs int     `json:"runs"` // the iteration count (b.N)
	NsOp float64 `json:"nsOp"`
	// BytesOp/AllocsOp are present when the run used -benchmem.
	BytesOp  float64 `json:"bytesOp,omitempty"`
	AllocsOp float64 `json:"allocsOp,omitempty"`
	// Metrics carries custom b.ReportMetric values by unit (comms, stages…).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Parse reads `go test -bench` output and collects benchmark results plus
// the cpu line. For repeated benchmarks (-count > 1), ns/op keeps the
// fastest repetition — scheduling interference on a loaded machine only
// ever adds time, so the minimum is the robust estimate of true cost and
// keeps the regression gate stable on noisy hardware — while memory and
// custom metrics, which are deterministic per run, are averaged.
func Parse(r io.Reader) (*File, error) {
	f := &File{Schema: Schema}
	type acc struct {
		Result
		n int
	}
	byName := map[string]*acc{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			f.CPU = strings.TrimSpace(cpu)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		a := byName[res.Name]
		if a == nil {
			a = &acc{Result: res, n: 1}
			byName[res.Name] = a
			order = append(order, res.Name)
			continue
		}
		a.n++
		a.Runs += res.Runs
		a.NsOp = min(a.NsOp, res.NsOp)
		a.BytesOp += res.BytesOp
		a.AllocsOp += res.AllocsOp
		for k, v := range res.Metrics {
			if a.Metrics == nil {
				a.Metrics = map[string]float64{}
			}
			a.Metrics[k] += v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range order {
		a := byName[name]
		res := a.Result
		if a.n > 1 {
			res.BytesOp /= float64(a.n)
			res.AllocsOp /= float64(a.n)
			for k := range res.Metrics {
				res.Metrics[k] /= float64(a.n)
			}
		}
		f.Results = append(f.Results, res)
	}
	sort.Slice(f.Results, func(i, j int) bool { return f.Results[i].Name < f.Results[j].Name })
	return f, nil
}

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkLTF/eps=1-8  100  123456 ns/op  4096 B/op  17 allocs/op  3.0 comms
//
// ok reports whether the line was a benchmark result at all (the "Benchmark…"
// announcement lines of -v runs carry no fields and are skipped).
func parseLine(line string) (res Result, ok bool, err error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return res, false, nil
	}
	res.Name = stripProcSuffix(fields[0])
	res.Runs, err = strconv.Atoi(fields[1])
	if err != nil {
		return res, false, fmt.Errorf("benchjson: bad iteration count in %q: %w", line, err)
	}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return res, false, fmt.Errorf("benchjson: bad value in %q: %w", line, err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsOp = v
		case "B/op":
			res.BytesOp = v
		case "allocs/op":
			res.AllocsOp = v
		case "MB/s":
			// throughput is derivable from ns/op; skip
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	return res, true, nil
}

// stripProcSuffix removes the trailing -N GOMAXPROCS marker from a benchmark
// name. Sub-benchmark names may themselves contain '-', so only a trailing
// all-digit segment is stripped.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	suffix := name[i+1:]
	if suffix == "" {
		return name
	}
	for _, c := range suffix {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// Encode writes f as stable, indented JSON.
func Encode(w io.Writer, f *File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Decode reads a File and verifies its schema.
func Decode(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("benchjson: schema %q, want %q", f.Schema, Schema)
	}
	return &f, nil
}

// Delta is one benchmark's baseline-to-current comparison.
type Delta struct {
	Name string
	// Ratio is current/baseline for the compared metric; 1.10 means 10%
	// slower (ns/op) or 10% more allocations.
	NsRatio     float64
	AllocsRatio float64 // 0 when either side lacks -benchmem data
	// MetricRatios holds current/baseline per custom-metric unit (wakes/op,
	// comms, …) for units present on both sides. A zero baseline reads 1
	// when the current value is zero too and +Inf otherwise, so a count
	// that was zero stays gated.
	MetricRatios map[string]float64
	Missing      bool // benchmark present in baseline but not in current
}

// Compare matches current results against a baseline by name. Benchmarks
// only present on one side are reported (Missing) or ignored (new ones —
// they have no baseline to regress against).
func Compare(baseline, current *File) []Delta {
	cur := map[string]Result{}
	for _, r := range current.Results {
		cur[r.Name] = r
	}
	var deltas []Delta
	for _, b := range baseline.Results {
		c, ok := cur[b.Name]
		if !ok {
			deltas = append(deltas, Delta{Name: b.Name, Missing: true})
			continue
		}
		d := Delta{Name: b.Name}
		if b.NsOp > 0 {
			d.NsRatio = c.NsOp / b.NsOp
		}
		if b.AllocsOp > 0 {
			d.AllocsRatio = c.AllocsOp / b.AllocsOp
		}
		for unit, bv := range b.Metrics {
			cv, ok := c.Metrics[unit]
			if !ok {
				continue
			}
			if d.MetricRatios == nil {
				d.MetricRatios = map[string]float64{}
			}
			switch {
			case bv > 0:
				d.MetricRatios[unit] = cv / bv
			case cv == bv:
				d.MetricRatios[unit] = 1
			default:
				d.MetricRatios[unit] = math.Inf(1)
			}
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// Regressions filters deltas exceeding the thresholds: nsTol is the allowed
// fractional ns/op increase (0.25 → fail above +25%), allocTol the same for
// allocs/op (pass a negative allocTol to skip the alloc gate), and metricTol
// bounds custom metrics per unit. A positive tolerance bounds growth —
// {"wakes/op": 0.10} fails any benchmark whose wakes/op grew more than 10%
// over the baseline — while a tolerance of 0 pins the metric exactly:
// {"events/op": 0} fails on any change, a fall as much as a rise, because
// a deterministic work count moves only when the work itself does. A
// benchmark that does not report a gated unit is not gated on it. Units
// absent from metricTol are informational only (quality metrics like stages
// move legitimately with algorithm changes). Missing benchmarks always count
// as regressions — a silently dropped benchmark must not pass the gate.
func Regressions(deltas []Delta, nsTol, allocTol float64, metricTol map[string]float64) []Delta {
	var bad []Delta
	for _, d := range deltas {
		switch {
		case d.Missing:
			bad = append(bad, d)
		case d.NsRatio > 1+nsTol:
			bad = append(bad, d)
		case allocTol >= 0 && d.AllocsRatio > 1+allocTol:
			bad = append(bad, d)
		default:
			for unit, tol := range metricTol {
				r, ok := d.MetricRatios[unit]
				if ok && (r > 1+tol || tol == 0 && r != 1) {
					bad = append(bad, d)
					break
				}
			}
		}
	}
	return bad
}

// Describe renders a delta for log output.
func (d Delta) Describe() string {
	if d.Missing {
		return fmt.Sprintf("%s: missing from current run", d.Name)
	}
	s := fmt.Sprintf("%s: ns/op ×%.3f", d.Name, d.NsRatio)
	if d.AllocsRatio > 0 {
		s += fmt.Sprintf(", allocs/op ×%.3f", d.AllocsRatio)
	}
	units := make([]string, 0, len(d.MetricRatios))
	for unit := range d.MetricRatios {
		units = append(units, unit)
	}
	sort.Strings(units)
	for _, unit := range units {
		s += fmt.Sprintf(", %s ×%.3f", unit, d.MetricRatios[unit])
	}
	return s
}
