// Package repair implements incremental rescheduling: given a committed
// schedule and a platform delta (processors lost or added, speeds or link
// bandwidths changed), it rebuilds the mapper state over the post-delta
// platform by replaying the surviving placements verbatim and re-placing
// only the evicted tasks through the normal search machinery. The journaled
// transactions of internal/mapper (State.Try over the one-port op journal)
// unwind a task whose prescription no longer fits in O(changes), which is
// what makes repair cheaper than a cold re-solve for small deltas — the
// ROADMAP's "platform as live, not static" item.
package repair

import (
	"fmt"

	"streamsched/internal/platform"
)

// SpeedChange sets one processor's speed (pre-delta numbering).
type SpeedChange struct {
	Proc  platform.ProcID
	Speed float64
}

// BandwidthChange sets one directed link's bandwidth (pre-delta numbering).
// The platform model prices each direction independently; symmetric changes
// list both directions.
type BandwidthChange struct {
	From, To  platform.ProcID
	Bandwidth float64
}

// AddedProc describes one processor joining the platform. Added processors
// take the highest identifiers of the post-delta platform, in Added order.
type AddedProc struct {
	Speed float64
	// Links holds the symmetric bandwidth between the new processor and
	// each processor that precedes it in the post-delta platform: the
	// surviving pre-delta processors in their original order, then every
	// earlier entry of Added. Its length must equal the new processor's
	// post-delta identifier.
	Links []float64
}

// Delta is one observed platform change set, applied atomically. The zero
// value is the empty delta (Apply returns the platform unchanged).
type Delta struct {
	// Lost lists processors removed from the platform (pre-delta
	// numbering). Surviving processors are renumbered densely, preserving
	// their relative order.
	Lost []platform.ProcID
	// Speed lists processor speed changes (applied to survivors).
	Speed []SpeedChange
	// Bandwidth lists directed link bandwidth changes (applied to
	// survivors).
	Bandwidth []BandwidthChange
	// Added lists processors joining the platform.
	Added []AddedProc
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return len(d.Lost) == 0 && len(d.Speed) == 0 && len(d.Bandwidth) == 0 && len(d.Added) == 0
}

// Apply builds the post-delta platform and the processor remap:
// remap[old] is the post-delta identifier of pre-delta processor old, or
// -1 when the delta lost it. Apply validates everything platform.New
// enforces by panic (deltas arrive from the wire, so malformed input must
// surface as an error), and rejects a delta that loses every processor.
func (d Delta) Apply(p *platform.Platform) (*platform.Platform, []platform.ProcID, error) {
	m := p.NumProcs()
	lost := make([]bool, m)
	for _, u := range d.Lost {
		if int(u) < 0 || int(u) >= m {
			return nil, nil, fmt.Errorf("repair: lost processor %d out of range [0,%d)", u, m)
		}
		if lost[u] {
			return nil, nil, fmt.Errorf("repair: processor %d lost twice", u)
		}
		lost[u] = true
	}

	// Stage the survivors' speeds and full bandwidth matrix in pre-delta
	// numbering, then apply the in-place changes.
	speeds := append([]float64(nil), p.Speeds()...)
	bw := make([][]float64, m)
	for k := 0; k < m; k++ {
		bw[k] = make([]float64, m)
		for h := 0; h < m; h++ {
			if k != h {
				bw[k][h] = p.Bandwidth(platform.ProcID(k), platform.ProcID(h))
			}
		}
	}
	for _, c := range d.Speed {
		if int(c.Proc) < 0 || int(c.Proc) >= m {
			return nil, nil, fmt.Errorf("repair: speed change for processor %d out of range [0,%d)", c.Proc, m)
		}
		if lost[c.Proc] {
			return nil, nil, fmt.Errorf("repair: speed change for lost processor %d", c.Proc)
		}
		if !(c.Speed > 0) { // rejects zero, negatives and NaN
			return nil, nil, fmt.Errorf("repair: processor %d speed change to non-positive %v", c.Proc, c.Speed)
		}
		speeds[c.Proc] = c.Speed
	}
	for _, c := range d.Bandwidth {
		if int(c.From) < 0 || int(c.From) >= m || int(c.To) < 0 || int(c.To) >= m {
			return nil, nil, fmt.Errorf("repair: bandwidth change (%d,%d) out of range [0,%d)", c.From, c.To, m)
		}
		if c.From == c.To {
			return nil, nil, fmt.Errorf("repair: bandwidth change on the diagonal (%d,%d)", c.From, c.To)
		}
		if lost[c.From] || lost[c.To] {
			return nil, nil, fmt.Errorf("repair: bandwidth change (%d,%d) touches a lost processor", c.From, c.To)
		}
		if !(c.Bandwidth > 0) {
			return nil, nil, fmt.Errorf("repair: link (%d,%d) bandwidth change to non-positive %v", c.From, c.To, c.Bandwidth)
		}
		bw[c.From][c.To] = c.Bandwidth
	}

	// Dense renumbering of the survivors, then the added processors.
	remap := make([]platform.ProcID, m)
	var survivors []platform.ProcID
	for u := 0; u < m; u++ {
		if lost[u] {
			remap[u] = -1
			continue
		}
		remap[u] = platform.ProcID(len(survivors))
		survivors = append(survivors, platform.ProcID(u))
	}
	nm := len(survivors) + len(d.Added)
	if nm == 0 {
		return nil, nil, fmt.Errorf("repair: delta loses every processor")
	}
	newSpeeds := make([]float64, nm)
	newBW := make([][]float64, nm)
	for k := range newBW {
		newBW[k] = make([]float64, nm)
	}
	for k, ou := range survivors {
		newSpeeds[k] = speeds[ou]
		for h, ov := range survivors {
			newBW[k][h] = bw[ou][ov]
		}
	}
	for i, a := range d.Added {
		id := len(survivors) + i
		if !(a.Speed > 0) {
			return nil, nil, fmt.Errorf("repair: added processor %d has non-positive speed %v", id, a.Speed)
		}
		if len(a.Links) != id {
			return nil, nil, fmt.Errorf("repair: added processor %d has %d links, want %d", id, len(a.Links), id)
		}
		newSpeeds[id] = a.Speed
		for j, b := range a.Links {
			if !(b > 0) {
				return nil, nil, fmt.Errorf("repair: added processor %d link %d has non-positive bandwidth %v", id, j, b)
			}
			newBW[id][j] = b
			newBW[j][id] = b
		}
	}
	return platform.New(newSpeeds, newBW), remap, nil
}
