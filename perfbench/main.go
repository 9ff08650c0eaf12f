// Command perfbench is the repository's end-to-end benchmark. Each
// invocation runs one workload in its own process:
//
//   - serve-hit: cached /v1/solve and /v1/replan requests through
//     service.New(cfg).Handler(), from nproc closed-loop clients;
//   - serve-miss: the same loop, every request a fresh problem or delta;
//   - campaign: a reduced Fig. 3/4 sweep through experiments.Run.
//
// A run sets up (several times, for a steady set-up time), measures for
// --seconds, checks every output, and prints one JSON line: the end-to-end
// metrics with --trace 0, or with --trace 1 the per-layer breakdown of a
// traced replay of the same inputs. metrics.go documents each metric.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// processStart anchors the first set-up: setup_s counts from here.
var processStart = time.Now()

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for the Chrome trace; "" writes none
	tiny     bool   // self-check size: small input sets, few set-ups
}

// report is what a workload measured.
type report struct {
	attempted, failed int64
	// latencySamples is how many timed latencies the percentiles rest on.
	latencySamples int
	// setups are the durations of the run's set-ups, in seconds.
	setups []float64
	// problems lists failed output checks; any entry makes the run incorrect.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
	spans    *spanLog
}

func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops attempted, %d succeeded, %d failed; latency percentiles over %d samples; set-ups took %.3f s\n",
		opts.workload, opts.seed, rep.attempted, rep.attempted-rep.failed, rep.failed, rep.latencySamples, rep.setups)
	line, err := json.Marshal(rep.result(opts.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "serve-hit, serve-miss or campaign")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1: print the per-layer metrics of a traced replay")
	fs.StringVar(&o.out, "out", "", "directory for the traced replay's Chrome trace")
	fs.BoolVar(&o.tiny, "tiny", false, "self-check size")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

func run(ctx context.Context, o options) (*report, error) {
	var (
		rep *report
		err error
	)
	switch o.workload {
	case "serve-hit", "serve-miss":
		rep, err = runServe(ctx, o)
	case "campaign":
		rep, err = runCampaign(ctx, o)
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	if o.trace && o.out != "" && rep.spans != nil {
		if err := writeTrace(rep.spans, o); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// writeTrace writes the traced replay's spans as Chrome trace-event JSON.
func writeTrace(l *spanLog, o options) error {
	data, err := l.chromeJSON()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	return os.WriteFile(path, data, 0o644)
}

// result renders the report with the end-to-end or the per-layer metrics.
func (r *report) result(traced bool) result {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
	}
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

// setupRepeats is how many times a run sets up; setup_s is the median.
func setupRepeats(o options) int {
	if o.tiny {
		return 1
	}
	return 5
}
