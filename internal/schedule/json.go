package schedule

// JSON serialization of schedules: the interchange format a downstream
// deployment would consume (which replica of which task runs where and
// when, and which transfers feed it). The graph and platform are referenced
// by summary only — they are inputs, not outputs, of the scheduler.
//
// The document is written and read without reflection. MarshalJSON appends
// it straight from the Schedule, byte for byte what encoding/json wrote for
// the serialized form below. LoadJSON reads that canonical compact form in
// one pass (canonical.go) and hands any other spelling to json.Unmarshal, so
// what it accepts, the schedule it builds and every error it reports stay
// encoding/json's.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"streamsched/internal/dag"
	"streamsched/internal/platform"
)

// jsonSchedule is the serialized form, as LoadJSON decodes and checks it.
type jsonSchedule struct {
	Algorithm string        `json:"algorithm"`
	Eps       int           `json:"eps"`
	Period    float64       `json:"period"`
	Graph     string        `json:"graph"`
	Tasks     int           `json:"tasks"`
	Procs     int           `json:"procs"`
	Stages    int           `json:"stages"`
	Latency   float64       `json:"latencyBound"`
	Replicas  []jsonReplica `json:"replicas"`
}

type jsonReplica struct {
	Task   int        `json:"task"`
	Name   string     `json:"name"`
	Copy   int        `json:"copy"`
	Proc   int        `json:"proc"`
	Start  float64    `json:"start"`
	Finish float64    `json:"finish"`
	Stage  int        `json:"stage"`
	In     []jsonComm `json:"in,omitempty"`
}

type jsonComm struct {
	FromTask int     `json:"fromTask"`
	FromCopy int     `json:"fromCopy"`
	Volume   float64 `json:"volume"`
	Start    float64 `json:"start"`
	Finish   float64 `json:"finish"`
}

// renderBuffers keeps MarshalJSON's growing buffers between renders, so a
// render allocates only the exact-size copy it returns.
var renderBuffers = sync.Pool{New: func() any { return new([]byte) }}

// MarshalJSON renders the schedule in its interchange form: compact JSON in
// the serialized form's field order, with the per-replica stage numbers, S
// and the latency bound from a single StageNumbers pass. The bytes are what
// json.Marshal of the serialized form returns — floats in its format,
// strings HTML-escaped — and also what json.Marshal(s) returns, so a
// service can write them verbatim; json.Indent them for human readers. The
// returned slice is exactly as long as its capacity: a cache holds it
// without slack. A NaN or infinite time or bound is an error.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	stages := s.StageNumbers()
	S := maxStage(stages)
	buf := renderBuffers.Get().(*[]byte)
	defer renderBuffers.Put(buf)
	e := encoder{b: (*buf)[:0]}
	e.raw(`{"algorithm":`)
	e.str(s.Algorithm)
	e.raw(`,"eps":`)
	e.int(s.Eps)
	e.raw(`,"period":`)
	e.float(s.Period)
	e.raw(`,"graph":`)
	e.str(s.G.Name())
	e.raw(`,"tasks":`)
	e.int(s.G.NumTasks())
	e.raw(`,"procs":`)
	e.int(s.P.NumProcs())
	e.raw(`,"stages":`)
	e.int(S)
	e.raw(`,"latencyBound":`)
	e.float(s.latencyBound(S))
	e.raw(`,"replicas":`)
	open := "["
	for _, copies := range s.replicas {
		for _, r := range copies {
			if r == nil {
				continue
			}
			e.raw(open)
			open = ","
			e.raw(`{"task":`)
			e.int(int(r.Ref.Task))
			e.raw(`,"name":`)
			e.str(s.G.Task(r.Ref.Task).Name)
			e.raw(`,"copy":`)
			e.int(r.Ref.Copy)
			e.raw(`,"proc":`)
			e.int(int(r.Proc))
			e.raw(`,"start":`)
			e.float(r.Start)
			e.raw(`,"finish":`)
			e.float(r.Finish)
			e.raw(`,"stage":`)
			e.int(stages[s.Index(r.Ref)])
			for k, c := range r.In {
				if k == 0 {
					e.raw(`,"in":[`)
				} else {
					e.raw(",")
				}
				e.raw(`{"fromTask":`)
				e.int(int(c.From.Task))
				e.raw(`,"fromCopy":`)
				e.int(c.From.Copy)
				e.raw(`,"volume":`)
				e.float(c.Volume)
				e.raw(`,"start":`)
				e.float(c.Start)
				e.raw(`,"finish":`)
				e.float(c.Finish)
				e.raw("}")
			}
			if len(r.In) > 0 {
				e.raw("]")
			}
			e.raw("}")
		}
	}
	if open == "[" {
		e.raw("null") // no replicas: encoding/json's rendering of a nil slice
	} else {
		e.raw("]")
	}
	e.raw("}")
	*buf = e.b
	if e.err != nil {
		return nil, e.err
	}
	out := make([]byte, len(e.b))
	copy(out, e.b)
	return out, nil
}

// encoder appends JSON values as encoding/json writes them; err keeps the
// first value JSON cannot represent.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

// float writes f in encoding/json's format: the shortest 'f' form, or 'e'
// below 1e-6 and from 1e21 on in magnitude with e-07 written as e-7.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("schedule: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// str writes s quoted and escaped as encoding/json does by default:
// quote, backslash and control bytes, the HTML-sensitive <, > and &, and
// U+2028/U+2029 are escaped, and each invalid UTF-8 byte becomes \ufffd.
func (e *encoder) str(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// LoadJSON reconstructs a schedule previously serialized with MarshalJSON,
// re-binding it to the given graph and platform (which must match the
// serialized dimensions). MarshalJSON's own compact bytes are read in one
// pass; any other spelling of the document (indented, reordered, escaped)
// goes through json.Unmarshal, which decides acceptance and error text as
// it always has. The structure is checked before anything is built from
// it, so untrusted input yields an error, never a panic or an allocation
// sized by an unchecked field. A schedule whose latency bound (2S−1)Δ
// overflows is refused too: MarshalJSON could not render it.
func LoadJSON(data []byte, g *dag.Graph, p *platform.Platform) (*Schedule, error) {
	var in jsonSchedule
	if !in.decodeCanonical(data) {
		in = jsonSchedule{}
		if err := json.Unmarshal(data, &in); err != nil {
			return nil, fmt.Errorf("schedule: %w", err)
		}
	}
	return in.build(g, p)
}

// build checks the decoded document against g and p and constructs the
// schedule; all replicas share one allocation, as do all transfers.
func (in *jsonSchedule) build(g *dag.Graph, p *platform.Platform) (*Schedule, error) {
	if in.Tasks != g.NumTasks() {
		return nil, fmt.Errorf("schedule: serialized for %d tasks, graph has %d", in.Tasks, g.NumTasks())
	}
	if in.Procs != p.NumProcs() {
		return nil, fmt.Errorf("schedule: serialized for %d processors, platform has %d", in.Procs, p.NumProcs())
	}
	if in.Period <= 0 {
		return nil, fmt.Errorf("schedule: non-positive period %v", in.Period)
	}
	if err := in.checkStructure(g); err != nil {
		return nil, err
	}
	s := New(g, p, in.Eps, in.Period, in.Algorithm)
	reps := make([]Replica, len(in.Replicas))
	n := 0
	for _, jr := range in.Replicas {
		n += len(jr.In)
	}
	comms := make([]Comm, n)
	for i, jr := range in.Replicas {
		rep := &reps[i]
		*rep = Replica{
			Ref:    Ref{Task: dag.TaskID(jr.Task), Copy: jr.Copy},
			Proc:   platform.ProcID(jr.Proc),
			Start:  jr.Start,
			Finish: jr.Finish,
		}
		if k := len(jr.In); k > 0 {
			rep.In, comms = comms[:k:k], comms[k:]
			for j, c := range jr.In {
				rep.In[j] = Comm{
					From:   Ref{Task: dag.TaskID(c.FromTask), Copy: c.FromCopy},
					Volume: c.Volume,
					Start:  c.Start,
					Finish: c.Finish,
				}
			}
		}
		s.AddReplica(rep)
	}
	if math.IsInf(s.LatencyBound(), 0) {
		return nil, fmt.Errorf("schedule: latency bound (2S−1)Δ overflows at period %v", in.Period)
	}
	return s, nil
}

// checkStructure validates what New and AddReplica would otherwise panic
// on: 0 ≤ ε < procs, every task, copy and processor in range, each of the
// v×(ε+1) replicas listed exactly once, and every input transfer coming
// from an in-range copy of a graph predecessor of the replica's task.
func (in *jsonSchedule) checkStructure(g *dag.Graph) error {
	if in.Eps < 0 || in.Eps >= in.Procs {
		return fmt.Errorf("schedule: ε=%d out of range [0,%d)", in.Eps, in.Procs)
	}
	copies := in.Eps + 1
	seen := make([]bool, in.Tasks*copies)
	for _, jr := range in.Replicas {
		if jr.Task < 0 || jr.Task >= in.Tasks || jr.Copy < 0 || jr.Copy >= copies {
			return fmt.Errorf("schedule: replica (task %d, copy %d) out of range (%d tasks, %d copies)", jr.Task, jr.Copy, in.Tasks, copies)
		}
		ref := Ref{Task: dag.TaskID(jr.Task), Copy: jr.Copy}
		if jr.Proc < 0 || jr.Proc >= in.Procs {
			return fmt.Errorf("schedule: replica %v on processor %d, platform has %d", ref, jr.Proc, in.Procs)
		}
		if seen[jr.Task*copies+jr.Copy] {
			return fmt.Errorf("schedule: replica %v listed twice", ref)
		}
		seen[jr.Task*copies+jr.Copy] = true
		for _, c := range jr.In {
			if !isPred(g, dag.TaskID(c.FromTask), ref.Task) || c.FromCopy < 0 || c.FromCopy >= copies {
				return fmt.Errorf("schedule: replica %v input from (task %d, copy %d), not a copy of a predecessor", ref, c.FromTask, c.FromCopy)
			}
		}
	}
	for k, ok := range seen {
		if !ok {
			return fmt.Errorf("schedule: replica %v missing", Ref{Task: dag.TaskID(k / copies), Copy: k % copies})
		}
	}
	return nil
}

// isPred reports whether u is a direct predecessor of t in g.
func isPred(g *dag.Graph, u, t dag.TaskID) bool {
	for _, e := range g.Pred(t) {
		if e.From == u {
			return true
		}
	}
	return false
}
