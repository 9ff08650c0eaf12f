package main

// Self-checks for the benchmark itself. A tiny-size run of every workload
// must print exactly the metrics BENCHMARK.json lists, with their units,
// and pass its own output checks; the wrapper must build and run from a
// clean offline copy of the repository while writing only under its build
// directory; and it must fail, without printing a result, where the
// program's sources are missing.

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// listed returns BENCHMARK.json's metric units by name, end-to-end or
// per-layer.
func listed(b benchmarkJSON, traced bool) map[string]string {
	m := map[string]string{}
	if traced {
		for _, d := range b.PerLayer {
			m[d.Name] = d.Unit
		}
	} else {
		for _, d := range b.EndToEnd {
			m[d.Name] = d.Unit
		}
	}
	return m
}

func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the table %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, table has %s %s %s %g", i, got, d.name, d.unit, d.better, d.bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, table has %s %s %s", i, got, d.name, d.unit, d.better)
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"serve-hit", "serve-miss", "campaign"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

// checkResult holds one printed result to BENCHMARK.json.
func checkResult(t *testing.T, b benchmarkJSON, workload string, traced bool, res result) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, traced, res.Correct, res.Attempted, res.Failed)
	}
	want := listed(b, traced)
	got := map[string]string{}
	for name, v := range res.Metrics {
		got[name] = v.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json lists %v", workload, traced, got, want)
	}
}

func TestTinyRunsEmitListedMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			rep, err := run(context.Background(), options{workload: w.Name, seed: 3, seconds: 0.5, trace: traced, out: out, tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			checkResult(t, b, w.Name, traced, rep.result(traced))
			files, _ := filepath.Glob(filepath.Join(out, "*.json"))
			if traced && len(files) != 1 {
				t.Errorf("%s: traced run wrote %v, want one Chrome trace", w.Name, files)
			}
			if traced {
				checkLayers(t, w.Name, rep.layers)
			}
		}
	}
}

// checkLayers holds a traced run to what its workload is for: each
// workload loads the layer it is named for, and the per-layer self times
// plus the remainder account for the traced end-to-end time.
func checkLayers(t *testing.T, workload string, l map[string]float64) {
	t.Helper()
	if workload == "campaign" {
		shares := []float64{l["experiments.sim_share"], l["experiments.solve_share"], l["experiments.other_share"]}
		if math.Abs(shares[0]+shares[1]+shares[2]-1) > 1e-9 {
			t.Errorf("campaign shares %v do not add up to 1", shares)
		}
		if !(shares[0] > shares[1] && shares[0] > shares[2]) {
			t.Errorf("campaign: the simulator's share %v is not the largest of %v", shares[0], shares)
		}
		return
	}
	sum := 0.0
	for _, part := range []string{"decode", "build", "hash", "handle", "render", "glue"} {
		sum += l["service."+part+"_ms"]
	}
	for _, part := range []string{"schedule.load", "schedule.marshal", "core.solve", "repair.replan"} {
		sum += l[part+"_ms"]
	}
	if req := l["service.request_ms"]; math.Abs(sum-req) > 1e-9*req {
		t.Errorf("%s: the layers add up to %v ms, the request took %v ms", workload, sum, req)
	}
	hit, solves := l["service.cache_hit_ratio"], l["service.solves_per_req"]
	if workload == "serve-hit" && (hit != 1 || solves != 0) {
		t.Errorf("serve-hit: cache hit ratio %v and %v solves per request, want 1 and 0", hit, solves)
	}
	if workload == "serve-miss" && hit != 0 {
		t.Errorf("serve-miss: cache hit ratio %v, want 0", hit)
	}
}

// copyTree copies the regular files under src to dst, skipping the
// directories skip names (relative to src).
func copyTree(t *testing.T, src, dst string, skip map[string]bool) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			if skip[rel] {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// listFiles returns every path under root, skipping the directory skip.
func listFiles(t *testing.T, root, skip string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path == skip {
			return filepath.SkipDir
		}
		out = append(out, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// runWrapper runs the benchmark command in dir, offline, with the build
// directory under dir, and returns its stdout and error.
func runWrapper(t *testing.T, dir string, args ...string) (string, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	b := readBenchmarkJSON(t)
	cmd := exec.CommandContext(ctx, b.Command[0], append(b.Command[1:], args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR=.bench_build")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err != nil {
		t.Logf("%v: %s", args, stderr.String())
	}
	return stdout.String(), err
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

func TestCleanCopyRunsOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the standard library from an empty cache")
	}
	b := readBenchmarkJSON(t)
	dir := t.TempDir()
	copyTree(t, "..", dir, map[string]bool{".git": true, ".bench_build": true})
	build := filepath.Join(dir, ".bench_build")
	before := listFiles(t, dir, build)
	for _, w := range b.Workloads {
		for _, traced := range []string{"0", "1"} {
			stdout, err := runWrapper(t, dir, "--workload", w.Name, "--seed", "5", "--seconds", "1", "--trace", traced, "--tiny")
			if err != nil {
				t.Fatalf("%s trace=%s: %v", w.Name, traced, err)
			}
			var res result
			if err := json.Unmarshal([]byte(lastLine(stdout)), &res); err != nil {
				t.Fatalf("%s trace=%s: last line %q: %v", w.Name, traced, lastLine(stdout), err)
			}
			checkResult(t, b, w.Name, traced == "1", res)
		}
	}
	if after := listFiles(t, dir, build); !reflect.DeepEqual(before, after) {
		t.Errorf("the runs wrote outside %s:\nbefore %v\nafter  %v", build, before, after)
	}
}

func TestFailsWithoutTheProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	dir := t.TempDir()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range b.Paths {
		copyTree(t, filepath.Join("..", p), filepath.Join(dir, p), nil)
	}
	stdout, err := runWrapper(t, dir, "--workload", "serve-hit", "--seed", "1", "--seconds", "1", "--trace", "0")
	if err == nil {
		t.Fatal("the benchmark succeeded without the program's sources")
	}
	if strings.Contains(stdout, `"metrics"`) {
		t.Fatalf("the failed run printed a result: %s", stdout)
	}
}
