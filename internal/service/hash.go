package service

// Canonical problem hashing. The cache and the coalescing layer key on
// "the problem", which the HTTP surface receives as (graph, platform,
// options). Hashing the wire JSON would be fragile — field order,
// whitespace and float formatting are not canonical — so the hash is
// computed over a deterministic binary encoding of the decoded in-memory
// problem: graph name, tasks (name, work bits) in ID order, edges in the
// graph's canonical iteration order, platform speeds and off-diagonal
// bandwidths in index order, and the solver's versioned Fingerprint.
// Solving is deterministic, so equal hashes imply byte-identical results.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
)

// problemHasher wraps a hash.Hash with the primitive encoders. The
// encoded bytes collect in buf and reach the hash a block at a time: a
// replan key encodes thousands of 8-byte fields, and one Write each would
// cost more than the hashing.
type problemHasher struct {
	h   hash.Hash
	buf []byte
}

// hasherBlock is how many encoded bytes problemHasher collects per Write.
const hasherBlock = 512

func newProblemHasher() *problemHasher {
	return &problemHasher{h: sha256.New(), buf: make([]byte, 0, hasherBlock)}
}

func (ph *problemHasher) u64(v uint64) {
	ph.buf = binary.LittleEndian.AppendUint64(ph.buf, v)
	if len(ph.buf) >= hasherBlock {
		ph.flush()
	}
}

func (ph *problemHasher) f64(v float64) { ph.u64(math.Float64bits(v)) }

func (ph *problemHasher) str(s string) {
	ph.u64(uint64(len(s)))
	ph.buf = append(ph.buf, s...)
	if len(ph.buf) >= hasherBlock {
		ph.flush()
	}
}

func (ph *problemHasher) flush() {
	ph.h.Write(ph.buf)
	ph.buf = ph.buf[:0]
}

// sum returns the hex digest of everything encoded.
func (ph *problemHasher) sum() string {
	ph.flush()
	return hex.EncodeToString(ph.h.Sum(nil))
}

// ProblemHash returns the canonical hash of (g, p, solver configuration)
// as a hex string. It is stable across processes and releases: the
// encoding is versioned by the leading magic and the solver fingerprint
// carries its own version tag.
func ProblemHash(g *dag.Graph, p *platform.Platform, s *core.Solver) string {
	ph := newProblemHasher()
	ph.str("streamsched-problem/v1")

	ph.str(g.Name())
	ph.u64(uint64(g.NumTasks()))
	for _, t := range g.Tasks() {
		ph.str(t.Name)
		ph.f64(t.Work)
	}
	ph.u64(uint64(g.NumEdges()))
	for i := 0; i < g.NumTasks(); i++ {
		for _, e := range g.Succ(dag.TaskID(i)) {
			ph.u64(uint64(e.From))
			ph.u64(uint64(e.To))
			ph.f64(e.Volume)
		}
	}

	m := p.NumProcs()
	ph.u64(uint64(m))
	for _, sp := range p.Speeds() {
		ph.f64(sp)
	}
	for k := 0; k < m; k++ {
		for h := 0; h < m; h++ {
			if k != h {
				ph.f64(p.Bandwidth(platform.ProcID(k), platform.ProcID(h)))
			}
		}
	}

	ph.str(s.Fingerprint())
	return ph.sum()
}

// ReplanHash returns the canonical hash of one replan request: the
// underlying problem hash (graph, pre-delta platform, solver), the
// committed schedule, the delta, and the repair policy. The schedule is
// hashed as decoded, with the same primitives as the problem: its
// algorithm, ε and Δ, then every placed replica in task and copy order —
// task, copy, processor, start, finish — with each input's source replica,
// volume and transfer window. Everything else its interchange JSON carries
// (names, dimensions, stages, the latency bound) follows from these and
// the problem. The leading magic differs from ProblemHash's, so replan and
// solve outcomes can never collide in the shared cache and flight map;
// v1 hashed the schedule's JSON instead, so v1 keys never match a v2 one.
// The error is always nil.
func ReplanHash(sp ReplanSpec) (string, error) {
	ph := newProblemHasher()
	ph.str("streamsched-replan/v2")
	ph.str(ProblemHash(sp.Old.G, sp.Old.P, sp.Solver))
	ph.schedule(sp.Old)

	d := sp.Delta
	ph.u64(uint64(len(d.Lost)))
	for _, u := range d.Lost {
		ph.u64(uint64(u))
	}
	ph.u64(uint64(len(d.Speed)))
	for _, s := range d.Speed {
		ph.u64(uint64(s.Proc))
		ph.f64(s.Speed)
	}
	ph.u64(uint64(len(d.Bandwidth)))
	for _, b := range d.Bandwidth {
		ph.u64(uint64(b.From))
		ph.u64(uint64(b.To))
		ph.f64(b.Bandwidth)
	}
	ph.u64(uint64(len(d.Added)))
	for _, a := range d.Added {
		ph.f64(a.Speed)
		ph.u64(uint64(len(a.Links)))
		for _, l := range a.Links {
			ph.f64(l)
		}
	}

	ph.u64(uint64(sp.RepairBudget))
	if sp.NoColdFallback {
		ph.u64(1)
	} else {
		ph.u64(0)
	}
	return ph.sum(), nil
}

// schedule hashes a committed schedule's structure (see ReplanHash).
func (ph *problemHasher) schedule(s *schedule.Schedule) {
	ph.str(s.Algorithm)
	ph.u64(uint64(s.Eps))
	ph.f64(s.Period)
	all := s.All()
	ph.u64(uint64(len(all)))
	for _, r := range all {
		ph.u64(uint64(r.Ref.Task))
		ph.u64(uint64(r.Ref.Copy))
		ph.u64(uint64(r.Proc))
		ph.f64(r.Start)
		ph.f64(r.Finish)
		ph.u64(uint64(len(r.In)))
		for _, c := range r.In {
			ph.u64(uint64(c.From.Task))
			ph.u64(uint64(c.From.Copy))
			ph.f64(c.Volume)
			ph.f64(c.Start)
			ph.f64(c.Finish)
		}
	}
}
