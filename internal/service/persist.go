package service

// Persistent cache spill + warm start (DESIGN.md §11). The LRU result
// cache holds pre-rendered response bytes keyed by canonical problem and
// replan hashes, which are stable across processes — exactly the shape a
// restart can reuse. The handle spills the cache to a snapshot file on
// graceful drain and periodically in the background, and replays it on
// boot so a restarted daemon serves yesterday's repeat traffic as cache
// hits without a single solver call.
//
// Snapshot format. One header, then self-delimiting entries, least
// recently used first (replaying in file order reproduces the recency
// order):
//
//	header:  magic "SSCHSNAP" (8 bytes) | u32 format version
//	entry:   u32 bodyLen | body | u32 crc32(IEEE, body)
//	body:    u16 entryVersion | u16 keyLen | key | payload JSON
//
// All integers little-endian. The payload is the snapPayload JSON document
// — the cached Outcome the LRU holds: the schedule's interchange bytes
// plus its summary, or the classified infeasibility, plus optional repair
// stats. Spill and replay move the LRU's own (key, Outcome) entries.
//
// Replay is forgiving by construction: a truncated tail (crash mid-write,
// torn disk) ends the replay with what decoded so far; a checksum
// mismatch, unknown entry version or malformed payload skips that entry
// and keeps going; an unknown file version or foreign magic skips the
// whole file. Nothing in a snapshot can fail a boot — the cache is an
// optimization, and a corrupt optimization must degrade to a cold start,
// not an outage. The skip counts surface as the snapshotSkipped metric
// and WarmStart's return values.
//
// The in-memory *schedule.Schedule does not survive the spill (it would
// drag the whole graph/platform object graph into the file); a replayed
// Outcome carries ScheduleJSON but no Schedule. Solve and Replan serve
// those bytes directly; Simulate rebuilds the schedule from them against
// the request's decoded graph and platform when it needs the in-memory
// form (see Handle.Simulate).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"

	"streamsched/internal/core"
	"streamsched/internal/faultinject"
	"streamsched/internal/obs"
)

const (
	snapshotVersion  = 1
	snapEntryVersion = 1
	// maxSnapBody bounds one entry's declared body length; a corrupt or
	// adversarial length field must not allocate unbounded memory.
	maxSnapBody = 64 << 20
	// maxSnapKey bounds the cache-key length; canonical hashes are 64 hex
	// characters, so anything much larger is corruption.
	maxSnapKey = 128
)

var snapshotMagic = [8]byte{'S', 'S', 'C', 'H', 'S', 'N', 'A', 'P'}

// errSnapshotHeader reports an unusable snapshot file (foreign magic or
// unknown format version). It is advisory: warm start logs it and boots
// cold.
var errSnapshotHeader = errors.New("service: unusable snapshot header")

// snapPayload is the JSON payload of one snapshot entry: the cached
// Outcome with the in-memory schedule reduced to its rendered bytes.
// Exactly one of Schedule and Infeasible is set.
type snapPayload struct {
	Schedule   json.RawMessage  `json:"schedule,omitempty"`
	Summary    *ScheduleSummary `json:"summary,omitempty"`
	Infeasible *Infeasible      `json:"infeasible,omitempty"`
	Replan     *ReplanStats     `json:"replan,omitempty"`
}

// encodeSnapshot renders the cache entries (least recently used first)
// into the snapshot format.
func encodeSnapshot(entries []lruEntry) []byte {
	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], snapshotVersion)
	buf.Write(u32[:])
	var body bytes.Buffer
	for i := range entries {
		out := &entries[i].out
		pl := snapPayload{
			Schedule:   out.ScheduleJSON,
			Summary:    out.Summary,
			Infeasible: out.Infeasible,
			Replan:     replanStatsDTO(out.Replan),
		}
		payload, err := json.Marshal(pl)
		if err != nil {
			continue // unmarshalable outcome: drop the entry, keep the file
		}
		body.Reset()
		var u16 [2]byte
		binary.LittleEndian.PutUint16(u16[:], snapEntryVersion)
		body.Write(u16[:])
		binary.LittleEndian.PutUint16(u16[:], uint16(len(entries[i].key)))
		body.Write(u16[:])
		body.WriteString(entries[i].key)
		body.Write(payload)
		binary.LittleEndian.PutUint32(u32[:], uint32(body.Len()))
		buf.Write(u32[:])
		buf.Write(body.Bytes())
		binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(body.Bytes()))
		buf.Write(u32[:])
	}
	return buf.Bytes()
}

// decodeSnapshot parses a snapshot file. It never panics on any input:
// entries that fail their checksum, carry an unknown entry version or an
// invalid payload are counted in skipped and passed over; a truncated or
// length-corrupted tail ends the decode (counted as one skip); a foreign
// magic or unknown file version returns errSnapshotHeader with no entries.
func decodeSnapshot(data []byte) (entries []lruEntry, skipped int, err error) {
	if len(data) < len(snapshotMagic)+4 || !bytes.Equal(data[:len(snapshotMagic)], snapshotMagic[:]) {
		return nil, 1, errSnapshotHeader
	}
	if v := binary.LittleEndian.Uint32(data[len(snapshotMagic):]); v != snapshotVersion {
		return nil, 1, fmt.Errorf("%w: format version %d (this build speaks %d)", errSnapshotHeader, v, snapshotVersion)
	}
	rest := data[len(snapshotMagic)+4:]
	for len(rest) > 0 {
		if len(rest) < 4 {
			skipped++ // truncated length prefix
			break
		}
		bodyLen := binary.LittleEndian.Uint32(rest)
		if bodyLen > maxSnapBody || int(bodyLen)+8 > len(rest) {
			skipped++ // corrupt length or truncated entry: framing is lost
			break
		}
		body := rest[4 : 4+bodyLen]
		sum := binary.LittleEndian.Uint32(rest[4+bodyLen:])
		rest = rest[8+bodyLen:]
		if crc32.ChecksumIEEE(body) != sum {
			skipped++
			continue
		}
		ent, ok := decodeSnapEntry(body)
		if !ok {
			skipped++
			continue
		}
		entries = append(entries, ent)
	}
	return entries, skipped, nil
}

// decodeSnapEntry parses one checksum-verified entry body.
func decodeSnapEntry(body []byte) (lruEntry, bool) {
	if len(body) < 4 {
		return lruEntry{}, false
	}
	if v := binary.LittleEndian.Uint16(body); v != snapEntryVersion {
		return lruEntry{}, false // unknown entry version: written by a newer build
	}
	keyLen := int(binary.LittleEndian.Uint16(body[2:]))
	if keyLen == 0 || keyLen > maxSnapKey || 4+keyLen > len(body) {
		return lruEntry{}, false
	}
	key := string(body[4 : 4+keyLen])
	var pl snapPayload
	if err := json.Unmarshal(body[4+keyLen:], &pl); err != nil {
		return lruEntry{}, false
	}
	// Exactly one of schedule and infeasibility, and schedule entries must
	// carry the summary their responses render.
	if (len(pl.Schedule) == 0) == (pl.Infeasible == nil) {
		return lruEntry{}, false
	}
	if len(pl.Schedule) > 0 && pl.Summary == nil {
		return lruEntry{}, false
	}
	out := Outcome{
		ScheduleJSON: pl.Schedule,
		Summary:      pl.Summary,
		Infeasible:   pl.Infeasible,
	}
	if pl.Replan != nil {
		out.Replan = &core.RepairStats{
			Replayed:  pl.Replan.Replayed,
			Preserved: pl.Replan.Preserved,
			Repaired:  pl.Replan.Repaired,
			ColdSolve: pl.Replan.ColdSolve,
		}
	}
	return lruEntry{key: key, out: out}, true
}

// SnapshotNow spills the current cache contents to the configured
// snapshot path (no-op without one). The write is atomic — temp file in
// the same directory, then rename — so a crash mid-write leaves the
// previous snapshot intact; the format additionally tolerates a torn
// file (see decodeSnapshot). Serialized so the background ticker and the
// drain spill cannot interleave.
func (h *Handle) SnapshotNow() error {
	if h.cfg.SnapshotPath == "" {
		return nil
	}
	h.snapMu.Lock()
	defer h.snapMu.Unlock()
	// Snapshot spills have no HTTP request to ride on, so a traced handle
	// gives each one its own trace in the /debug/traces ring: an operator
	// debugging a latency blip can see whether a background spill (encode
	// vs. write breakdown, byte count) coincided with it.
	var tr *obs.Trace
	var sp obs.SpanRef
	if h.traces != nil {
		tr = obs.NewTrace("snapshot")
		sp = tr.Root()
		defer func() {
			tr.Finish(0)
			h.traces.Add(tr)
		}()
	}
	if faultinject.Fire(SiteSnapshotWrite) {
		return errors.New("faultinject: " + SiteSnapshotWrite)
	}
	es := sp.Child("encode")
	data := encodeSnapshot(h.cache.entries())
	es.End()
	if sp.Active() {
		sp.SetArg("bytes", len(data))
	}
	ws := sp.Child("write")
	defer ws.End()
	tmp := h.cfg.SnapshotPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, h.cfg.SnapshotPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: committing snapshot: %w", err)
	}
	h.m.snapshotWrites.Add(1)
	return nil
}

// replaySnapshot loads the snapshot file into the cache, oldest entry
// first so the LRU recency order survives the restart. A missing file is
// a clean cold start. The returned error is advisory (logged by the
// caller); replay never fails a boot.
func (h *Handle) replaySnapshot() (replayed, skipped int, err error) {
	if faultinject.Fire(SiteSnapshotReplay) {
		return 0, 0, errors.New("faultinject: " + SiteSnapshotReplay)
	}
	data, err := os.ReadFile(h.cfg.SnapshotPath)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("service: reading snapshot: %w", err)
	}
	entries, skipped, err := decodeSnapshot(data)
	for i := range entries {
		h.cache.Put(entries[i].key, entries[i].out)
	}
	return len(entries), skipped, err
}
