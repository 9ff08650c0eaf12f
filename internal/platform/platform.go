// Package platform models the heterogeneous target of the paper's framework
// (§2): m fully interconnected processors P = {P1..Pm} with speeds s_u, and
// links l_kh of bandwidth d_kh (when processors are connected by a multi-hop
// path, the path's slowest link defines the bandwidth — callers simply store
// that effective value). Communication follows the bi-directional one-port
// model, which lives in package oneport; this package only carries the
// static parameters.
package platform

import (
	"fmt"
	"math"

	"streamsched/internal/dag"
	"streamsched/internal/rng"
)

// ProcID identifies a processor; IDs are dense, starting at 0.
type ProcID int

// Platform describes the processors and the link bandwidth matrix.
type Platform struct {
	speeds []float64
	bw     [][]float64 // bw[k][h]: bandwidth of link l_kh; diagonal unused
}

// New builds a platform from explicit speeds and a bandwidth matrix.
// The matrix must be square with dimension len(speeds); off-diagonal entries
// must be positive. It panics on malformed input (platforms are built by
// trusted generators).
func New(speeds []float64, bw [][]float64) *Platform {
	m := len(speeds)
	if m == 0 {
		panic("platform: no processors")
	}
	if len(bw) != m {
		panic(fmt.Sprintf("platform: bandwidth matrix has %d rows, want %d", len(bw), m))
	}
	for u, s := range speeds {
		if s <= 0 {
			panic(fmt.Sprintf("platform: processor %d has non-positive speed %v", u, s))
		}
		if len(bw[u]) != m {
			panic(fmt.Sprintf("platform: bandwidth row %d has %d cols, want %d", u, len(bw[u]), m))
		}
		for h, d := range bw[u] {
			if h != u && d <= 0 {
				panic(fmt.Sprintf("platform: link (%d,%d) has non-positive bandwidth %v", u, h, d))
			}
		}
	}
	p := &Platform{
		speeds: append([]float64(nil), speeds...),
		bw:     make([][]float64, m),
	}
	for u := range bw {
		p.bw[u] = append([]float64(nil), bw[u]...)
	}
	return p
}

// Homogeneous builds m identical processors of the given speed with uniform
// link bandwidth.
func Homogeneous(m int, speed, bandwidth float64) *Platform {
	speeds := make([]float64, m)
	bw := make([][]float64, m)
	for u := range speeds {
		speeds[u] = speed
		bw[u] = make([]float64, m)
		for h := range bw[u] {
			bw[u][h] = bandwidth
		}
	}
	return New(speeds, bw)
}

// RandomHeterogeneous draws speeds uniformly from [speedLo, speedHi] and,
// per the paper's experimental setup, draws a *unit message delay* for each
// link uniformly from [delayLo, delayHi]; the link bandwidth is
// volumeScale/delay, so a volume-V message takes V·delay/volumeScale time.
// Links are symmetric (d_kh = d_hk).
func RandomHeterogeneous(r *rng.Source, m int, speedLo, speedHi, delayLo, delayHi, volumeScale float64) *Platform {
	speeds := make([]float64, m)
	for u := range speeds {
		speeds[u] = r.Uniform(speedLo, speedHi)
	}
	bw := make([][]float64, m)
	for u := range bw {
		bw[u] = make([]float64, m)
	}
	for u := 0; u < m; u++ {
		for h := u + 1; h < m; h++ {
			delay := r.Uniform(delayLo, delayHi)
			b := volumeScale / delay
			bw[u][h] = b
			bw[h][u] = b
		}
	}
	return New(speeds, bw)
}

// NumProcs returns m.
func (p *Platform) NumProcs() int { return len(p.speeds) }

// Speed returns s_u.
func (p *Platform) Speed(u ProcID) float64 { return p.speeds[u] }

// Speeds returns all speeds in ID order; the slice must not be modified.
func (p *Platform) Speeds() []float64 { return p.speeds }

// Bandwidth returns d_kh, the bandwidth of the link between k and h.
// It panics for k == h: intra-processor transfers take zero time and must be
// short-circuited by the caller, never priced through a link.
func (p *Platform) Bandwidth(k, h ProcID) float64 {
	if k == h {
		panic(fmt.Sprintf("platform: bandwidth queried for intra-processor pair %d", k))
	}
	return p.bw[k][h]
}

// Transpose returns the platform with every link reversed: the same
// speeds, and d_hk as the bandwidth of l_kh. A construction that runs in
// reverse time (R-LTF) prices its transfers on it, so that each mirrored
// transfer costs what its forward direction costs. A symmetric platform
// is its own transpose and comes back as is, without a copy.
func (p *Platform) Transpose() *Platform {
	symmetric := true
	for k := range p.bw {
		for h := range k {
			if p.bw[k][h] != p.bw[h][k] {
				symmetric = false
			}
		}
	}
	if symmetric {
		return p
	}
	bw := make([][]float64, len(p.bw))
	for k := range bw {
		bw[k] = make([]float64, len(p.bw))
		for h := range bw[k] {
			bw[k][h] = p.bw[h][k]
		}
	}
	return &Platform{speeds: p.speeds, bw: bw}
}

// ExecTime returns the running time of a work-w task on processor u.
func (p *Platform) ExecTime(w float64, u ProcID) float64 { return w / p.speeds[u] }

// CommTime returns the transfer time of volume vol from k to h (zero when
// k == h).
func (p *Platform) CommTime(vol float64, k, h ProcID) float64 {
	if k == h {
		return 0
	}
	return vol / p.bw[k][h]
}

// MinSpeed returns the slowest processor speed.
func (p *Platform) MinSpeed() float64 {
	m := math.Inf(1)
	for _, s := range p.speeds {
		if s < m {
			m = s
		}
	}
	return m
}

// MaxSpeed returns the fastest processor speed.
func (p *Platform) MaxSpeed() float64 {
	m := math.Inf(-1)
	for _, s := range p.speeds {
		if s > m {
			m = s
		}
	}
	return m
}

// MeanSpeed returns the average speed s̄, used by the level weight functions.
func (p *Platform) MeanSpeed() float64 {
	sum := 0.0
	for _, s := range p.speeds {
		sum += s
	}
	return sum / float64(len(p.speeds))
}

// MinBandwidth returns the slowest link bandwidth.
func (p *Platform) MinBandwidth() float64 {
	m := math.Inf(1)
	for u := range p.bw {
		for h, d := range p.bw[u] {
			if u != h && d < m {
				m = d
			}
		}
	}
	return m
}

// MeanBandwidth returns the average off-diagonal bandwidth d̄.
func (p *Platform) MeanBandwidth() float64 {
	sum, n := 0.0, 0
	for u := range p.bw {
		for h, d := range p.bw[u] {
			if u != h {
				sum += d
				n++
			}
		}
	}
	if n == 0 {
		return math.Inf(1) // single processor: communications are free
	}
	return sum / float64(n)
}

// Granularity returns g(G,P) as defined in §2: the ratio of the sum of the
// slowest computation times of each task to the sum of the slowest
// communication times along each edge. Larger g means a more compute-bound
// workload. It returns +Inf for graphs without (positive-volume) edges.
func Granularity(g *dag.Graph, p *Platform) float64 {
	comp := 0.0
	minS := p.MinSpeed()
	for _, t := range g.Tasks() {
		comp += t.Work / minS
	}
	comm := 0.0
	minB := p.MinBandwidth()
	for i := 0; i < g.NumTasks(); i++ {
		for _, e := range g.Succ(dag.TaskID(i)) {
			comm += e.Volume / minB
		}
	}
	if comm == 0 {
		return math.Inf(1)
	}
	return comp / comm
}

// String summarizes the platform.
func (p *Platform) String() string {
	return fmt.Sprintf("platform(m=%d speeds=[%.3g,%.3g] bw_min=%.3g)",
		p.NumProcs(), p.MinSpeed(), p.MaxSpeed(), p.MinBandwidth())
}
