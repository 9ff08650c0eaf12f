package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"streamsched/internal/stats"
	"streamsched/internal/trace"
)

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB reads the process's high-water resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeSample is a reading of the Go runtime's allocation and CPU
// counters; the difference of two readings brackets a phase.
type runtimeSample struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3], v[4]}
}

// phase brackets a timed phase: wall time, process CPU and runtime counters.
type phase struct {
	start time.Time
	cpu   float64
	rt    runtimeSample
}

func beginPhase() phase {
	return phase{start: time.Now(), cpu: cpuSeconds(), rt: readRuntime()}
}

// phaseStats is what a phase cost.
type phaseStats struct {
	wall, cpu                      float64 // seconds
	allocBytes, allocs, gcCPUShare float64
}

func (p phase) end() phaseStats {
	rt := readRuntime()
	st := phaseStats{
		wall:       time.Since(p.start).Seconds(),
		cpu:        cpuSeconds() - p.cpu,
		allocBytes: rt.allocBytes - p.rt.allocBytes,
		allocs:     rt.allocObjects - p.rt.allocObjects,
	}
	if busy := (rt.totalCPU - p.rt.totalCPU) - (rt.idleCPU - p.rt.idleCPU); busy > 0 {
		st.gcCPUShare = (rt.gcCPU - p.rt.gcCPU) / busy
	}
	return st
}

// passClock splits a timed phase into passes of a fixed number of ops and
// records the wall and CPU time at every pass boundary, so that throughput
// and CPU per op can be reported as medians over passes, which a burst of
// host steal moves far less than a mean over the whole phase.
type passClock struct {
	opsPerPass int
	start      time.Time
	startCPU   float64
	mu         sync.Mutex
	ops        int
	marks      [][2]float64 // wall seconds since start, process CPU seconds
}

func newPassClock(opsPerPass int) *passClock {
	return &passClock{opsPerPass: opsPerPass, start: time.Now(), startCPU: cpuSeconds()}
}

// add counts n completed ops, closing a pass each time the count crosses a
// multiple of opsPerPass.
func (c *passClock) add(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.ops / c.opsPerPass
	c.ops += n
	if c.ops/c.opsPerPass > before {
		c.marks = append(c.marks, [2]float64{time.Since(c.start).Seconds(), cpuSeconds()})
	}
}

// passStats are the medians over a phase's passes.
type passStats struct {
	seconds    float64 // wall time of one pass
	opsPerSec  float64
	cpuMsPerOp float64
	passes     int
}

func (c *passClock) stats() passStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var wall, rate, cpu []float64
	prevWall, prevCPU := 0.0, c.startCPU
	n := float64(c.opsPerPass)
	for _, m := range c.marks {
		w := m[0] - prevWall
		wall = append(wall, w)
		rate = append(rate, n/w)
		cpu = append(cpu, 1000*(m[1]-prevCPU)/n)
		prevWall, prevCPU = m[0], m[1]
	}
	return passStats{stats.Median(wall), stats.Median(rate), stats.Median(cpu), len(c.marks)}
}

// span is one call the benchmark made into a layer.
type span struct {
	name   string
	lane   string // the goroutine that made the call
	req    int    // request, cell or job the call belongs to
	parent int    // index of the logical parent span, -1 for a root
	start  time.Duration
	end    time.Duration
}

// spanLog keeps the traced replay's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its index.
func (l *spanLog) begin(name, lane string, req, parent int) int {
	now := time.Since(l.origin)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, lane: lane, req: req, parent: parent, start: now, end: -1})
	return len(l.spans) - 1
}

// end closes span i and returns its duration in milliseconds.
func (l *spanLog) end(i int) float64 {
	now := time.Since(l.origin)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].end = now
	return msOf(now - l.spans[i].start)
}

// timed runs fn as one span and returns its duration in milliseconds.
func (l *spanLog) timed(name, lane string, req, parent int, fn func()) float64 {
	i := l.begin(name, lane, req, parent)
	fn()
	return l.end(i)
}

// chromeJSON renders the spans as Chrome trace events, one row per lane.
func (l *spanLog) chromeJSON() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]trace.Span, 0, len(l.spans))
	for _, s := range l.spans {
		end := s.end
		if end < 0 {
			end = s.start
		}
		args := map[string]any{"req": s.req}
		if s.parent >= 0 {
			args["parent"] = l.spans[s.parent].name
		}
		out = append(out, trace.Span{
			Name:  s.name,
			Lane:  s.lane,
			Start: float64(s.start) / float64(time.Microsecond),
			End:   float64(end) / float64(time.Microsecond),
			Args:  args,
		})
	}
	return trace.ChromeJSON(out)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
