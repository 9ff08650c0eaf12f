// Command streamsched schedules a workflow on a simulated heterogeneous
// platform and reports the paper's metrics, optionally simulating the
// pipelined execution with processor crashes.
//
//	streamsched -graph fig2 -m 10 -eps 1 -period 20 -algo rltf -gantt
//	streamsched -graph fft -size 4 -m 8 -eps 1 -period 0 -simulate -crash 1
//	streamsched -graph random -granularity 0.8 -m 20 -eps 3 -period 40 -dot
//
// With -period 0 the minimal feasible period is binary-searched first.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"streamsched"
)

func main() {
	var (
		graph   = flag.String("graph", "fig2", "workflow: chain|forkjoin|intree|outtree|fft|gauss|stencil|fig1|fig2|random")
		size    = flag.Int("size", 8, "size parameter of the generated workflow")
		gran    = flag.Float64("granularity", 1.0, "granularity target for -graph random")
		m       = flag.Int("m", 8, "number of processors")
		hetero  = flag.Bool("hetero", false, "heterogeneous platform (speeds/delays like the paper)")
		seed    = flag.Uint64("seed", 1, "random seed for -hetero and -graph random")
		eps     = flag.Int("eps", 1, "ε: number of tolerated processor failures")
		period  = flag.Float64("period", 20, "required period Δ = 1/T (0: search minimum)")
		algo    = flag.String("algo", "rltf", "algorithm: ltf|rltf|ff|portfolio")
		gantt   = flag.Bool("gantt", false, "print an ASCII Gantt chart")
		dot     = flag.Bool("dot", false, "print the workflow in Graphviz dot")
		simFlag = flag.Bool("simulate", false, "simulate the pipelined execution")
		crash   = flag.Int("crash", 0, "number of processors to crash in the simulation")
		sync    = flag.Bool("sync", false, "use stage-synchronized execution semantics")
		check   = flag.Bool("check", true, "run the full schedule validation")
		traceF  = flag.String("trace", "", "write a chrome://tracing JSON of the schedule (or simulation, with -simulate) to this file")
		jsonF   = flag.String("json", "", "write the schedule as JSON to this file")
	)
	flag.Parse()

	// Ctrl-C cancels the solve/search/simulation cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	p := buildPlatform(*hetero, *m, *seed)
	g, err := buildGraph(*graph, *size, *gran, *seed, p)
	if err != nil {
		fatal(err)
	}
	if *dot {
		fmt.Print(g.DOT())
	}

	var algorithm streamsched.Algorithm
	switch *algo {
	case "ltf":
		algorithm = streamsched.LTF
	case "rltf":
		algorithm = streamsched.RLTF
	case "ff":
		algorithm = streamsched.FaultFree
	case "portfolio":
		algorithm = streamsched.Portfolio
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}

	var s *streamsched.Schedule
	if *period <= 0 {
		min, sched, err := streamsched.MinPeriod(ctx, g, p, *eps, algorithm, 1e-3)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("minimum feasible period: %.4g\n", min)
		s = sched
	} else {
		solver, err := streamsched.NewSolver(
			streamsched.WithAlgorithm(algorithm),
			streamsched.WithEps(*eps),
			streamsched.WithPeriod(*period),
		)
		if err != nil {
			fatal(err)
		}
		s, err = solver.Solve(ctx, g, p)
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("%s: %d tasks on %d processors, ε=%d, Δ=%.4g\n",
		s.Algorithm, g.NumTasks(), p.NumProcs(), s.Eps, s.Period)
	fmt.Printf("  stages S=%d   latency bound L=(2S−1)Δ=%.4g\n", s.Stages(), s.LatencyBound())
	fmt.Printf("  achieved cycle time %.4g (throughput 1/%.4g)\n",
		s.AchievedCycleTime(), 1/s.AchievedThroughput())
	fmt.Printf("  processors used %d, inter-processor comms %d\n", s.ProcsUsed(), s.CrossComms())
	if *check {
		if err := s.Validate(); err != nil {
			fatal(fmt.Errorf("schedule validation: %w", err))
		}
		fmt.Println("  validation: ok (incl. exhaustive ε-failure check)")
	}
	if *gantt {
		fmt.Print(s.Gantt(100))
	}
	if *jsonF != "" {
		data, err := s.MarshalJSON()
		if err != nil {
			fatal(err)
		}
		// The interchange bytes are compact; the file is for people too.
		var indented bytes.Buffer
		if err := json.Indent(&indented, data, "", "  "); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonF, indented.Bytes(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("  schedule JSON written to %s\n", *jsonF)
	}
	spans := streamsched.ScheduleTrace(s)
	if *simFlag {
		cfg := streamsched.DefaultSimConfig(s)
		cfg.Synchronous = *sync
		if *traceF != "" {
			cfg.TraceItems = 5
		}
		if *crash > 0 {
			procs := make([]streamsched.ProcID, 0, *crash)
			for u := 0; u < *crash && u < p.NumProcs(); u++ {
				procs = append(procs, streamsched.ProcID(u))
			}
			cfg.Failures = streamsched.FailureSpec{Procs: procs}
			fmt.Printf("  crashing processors %v\n", procs)
		}
		res, err := streamsched.Simulate(ctx, s, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  simulated: delivered %d/%d, mean latency %.4g, max %.4g, achieved period %.4g\n",
			res.Delivered, res.Items, res.MeanLatency, res.MaxLatency, res.AchievedPeriod)
		if *traceF != "" {
			spans = res.Trace
		}
	}
	if *traceF != "" {
		data, err := streamsched.ChromeTraceJSON(spans)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*traceF, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("  trace written to %s (open in chrome://tracing)\n", *traceF)
	}
}

func buildPlatform(hetero bool, m int, seed uint64) *streamsched.Platform {
	if hetero {
		return streamsched.RandomPlatform(seed, m, 0.5, 1.0, 0.5, 1.0)
	}
	return streamsched.Homogeneous(m, 1, 1)
}

func buildGraph(kind string, size int, gran float64, seed uint64, p *streamsched.Platform) (*streamsched.Graph, error) {
	switch kind {
	case "chain":
		return streamsched.Chain(size, 1, 1), nil
	case "forkjoin":
		return streamsched.ForkJoin(size, 2, 1, 1), nil
	case "intree":
		return streamsched.InTree(size, 1, 1), nil
	case "outtree":
		return streamsched.OutTree(size, 1, 1), nil
	case "fft":
		return streamsched.Butterfly(size, 1, 1), nil
	case "gauss":
		return streamsched.GaussianElimination(size, 1, 1), nil
	case "stencil":
		return streamsched.Stencil(size, size, 1, 1), nil
	case "fig1":
		return streamsched.Fig1Graph(), nil
	case "fig2":
		return streamsched.Fig2Graph(), nil
	case "random":
		return streamsched.RandomStream(seed, gran, p), nil
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}

func fatal(err error) {
	// Distinguish "no schedule exists" (an expected, classified outcome)
	// from solver faults.
	var inf *streamsched.InfeasibleError
	if errors.As(err, &inf) {
		fmt.Fprintf(os.Stderr, "streamsched: instance is infeasible (%v): %v\n", inf.Reason, err)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "streamsched:", err)
	os.Exit(1)
}
