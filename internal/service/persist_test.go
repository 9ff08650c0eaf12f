package service

// Snapshot format tests: round-trip fidelity, and the forgiving-replay
// contract — truncation, bit flips and version bumps must skip entries (or
// the file), never panic and never fail a boot. FuzzSnapshotDecode extends
// the same contract to arbitrary input.

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"testing"

	"streamsched/internal/core"
)

// snapTestEntries solves n distinct problems plus one infeasible problem
// through a fresh handle and returns its cache entries — realistic
// outcomes with pre-rendered schedule bytes and a typed infeasibility.
func snapTestEntries(t *testing.T, n int) []lruEntry {
	t.Helper()
	h := NewHandle(Config{})
	for i := 0; i < n; i++ {
		req := feasibleRequest(float64(i + 1))
		out, err := h.Solve(context.Background(), solveSpec(t, req))
		if err != nil {
			t.Fatal(err)
		}
		if out.Schedule == nil {
			t.Fatal("test problem unexpectedly infeasible")
		}
	}
	out, err := h.Solve(context.Background(), solveSpec(t, infeasibleRequest()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Infeasible == nil {
		t.Fatal("infeasible test problem produced a schedule")
	}
	entries := h.cache.entries()
	// Attach repair stats to one entry so the replan field round-trips too.
	entries[0].out.Replan = &core.RepairStats{Replayed: 3, Preserved: 2, Repaired: 1, ColdSolve: false}
	if len(entries) != n+1 {
		t.Fatalf("cache holds %d entries, want %d", len(entries), n+1)
	}
	return entries
}

func TestSnapshotRoundTrip(t *testing.T) {
	entries := snapTestEntries(t, 3)
	data := encodeSnapshot(entries)
	decoded, skipped, err := decodeSnapshot(data)
	if err != nil || skipped != 0 {
		t.Fatalf("decode: skipped=%d err=%v", skipped, err)
	}
	if len(decoded) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(decoded), len(entries))
	}
	for i := range entries {
		if decoded[i].key != entries[i].key {
			t.Fatalf("entry %d: key %q, want %q (order must be preserved)", i, decoded[i].key, entries[i].key)
		}
		if !bytes.Equal(decoded[i].out.ScheduleJSON, entries[i].out.ScheduleJSON) {
			t.Fatalf("entry %d: schedule bytes differ after round trip", i)
		}
		if (decoded[i].out.Infeasible == nil) != (entries[i].out.Infeasible == nil) {
			t.Fatalf("entry %d: infeasibility lost in round trip", i)
		}
		if (decoded[i].out.Replan == nil) != (entries[i].out.Replan == nil) {
			t.Fatalf("entry %d: repair stats lost in round trip", i)
		}
		if decoded[i].out.Replan != nil && *decoded[i].out.Replan != *entries[i].out.Replan {
			t.Fatalf("entry %d: repair stats %+v, want %+v", i, *decoded[i].out.Replan, *entries[i].out.Replan)
		}
	}
	// A decoded snapshot re-encodes to the identical bytes: nothing in the
	// format depends on in-memory state the spill drops (the schedule
	// pointer).
	relru := make([]lruEntry, len(decoded))
	for i, e := range decoded {
		relru[i] = lruEntry{key: e.key, out: e.out}
	}
	if !bytes.Equal(encodeSnapshot(relru), data) {
		t.Fatal("re-encoding a decoded snapshot changed the bytes")
	}
}

func TestSnapshotTruncationNeverPanics(t *testing.T) {
	entries := snapTestEntries(t, 2)
	data := encodeSnapshot(entries)
	for cut := 0; cut <= len(data); cut++ {
		decoded, _, err := decodeSnapshot(data[:cut])
		if err != nil && cut >= len(snapshotMagic)+4 {
			t.Fatalf("cut=%d: header error %v on a file with an intact header", cut, err)
		}
		if len(decoded) > len(entries) {
			t.Fatalf("cut=%d: decoded more entries than were written", cut)
		}
		for i, e := range decoded {
			if e.key != entries[i].key {
				t.Fatalf("cut=%d: entry %d key %q, want %q", cut, i, e.key, entries[i].key)
			}
		}
	}
}

func TestSnapshotBitFlipsSkipEntries(t *testing.T) {
	entries := snapTestEntries(t, 2)
	data := encodeSnapshot(entries)
	valid := make(map[string]bool, len(entries))
	for _, e := range entries {
		valid[e.key] = true
	}
	for pos := 0; pos < len(data); pos++ {
		for _, mask := range []byte{0x01, 0x80} {
			mut := bytes.Clone(data)
			mut[pos] ^= mask
			decoded, skipped, _ := decodeSnapshot(mut)
			// Whatever survives must be an original entry, in order; the
			// flipped region must be rejected, not misread.
			if len(decoded) == len(entries) && skipped == 0 {
				for i := range decoded {
					if decoded[i].key != entries[i].key || !bytes.Equal(decoded[i].out.ScheduleJSON, entries[i].out.ScheduleJSON) {
						t.Fatalf("pos=%d mask=%#x: corrupt entry accepted", pos, mask)
					}
				}
			}
			for _, e := range decoded {
				if !valid[e.key] {
					t.Fatalf("pos=%d mask=%#x: fabricated key %q decoded", pos, mask, e.key)
				}
			}
		}
	}
}

func TestSnapshotUnknownFileVersionSkipsFile(t *testing.T) {
	data := encodeSnapshot(snapTestEntries(t, 1))
	binary.LittleEndian.PutUint32(data[len(snapshotMagic):], snapshotVersion+1)
	decoded, skipped, err := decodeSnapshot(data)
	if err == nil || len(decoded) != 0 || skipped == 0 {
		t.Fatalf("version-bumped file: entries=%d skipped=%d err=%v, want header error", len(decoded), skipped, err)
	}
	if _, _, err := decodeSnapshot([]byte("not a snapshot")); err == nil {
		t.Fatal("foreign magic accepted")
	}
}

func TestSnapshotUnknownEntryVersionSkipsEntry(t *testing.T) {
	entries := snapTestEntries(t, 2)
	data := encodeSnapshot(entries)
	// Bump the first entry's version and re-checksum it, so only the
	// version check can reject it.
	off := len(snapshotMagic) + 4
	bodyLen := binary.LittleEndian.Uint32(data[off:])
	body := data[off+4 : off+4+int(bodyLen)]
	binary.LittleEndian.PutUint16(body, snapEntryVersion+1)
	binary.LittleEndian.PutUint32(data[off+4+int(bodyLen):], crc32.ChecksumIEEE(body))
	decoded, skipped, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || len(decoded) != len(entries)-1 {
		t.Fatalf("entries=%d skipped=%d, want the bumped entry skipped and the rest kept", len(decoded), skipped)
	}
	if decoded[0].key != entries[1].key {
		t.Fatalf("surviving entry %q, want %q", decoded[0].key, entries[1].key)
	}
}

// TestSnapshotRestoresCanonicalScheduleBytes hand-writes an entry whose
// schedule is indented and holds a raw '<': replies write cached bytes
// verbatim, so the restore must hold them compact and escaped, as
// json.Encoder would have written them.
func TestSnapshotRestoresCanonicalScheduleBytes(t *testing.T) {
	const key = "k"
	body := binary.LittleEndian.AppendUint16(nil, snapEntryVersion)
	body = binary.LittleEndian.AppendUint16(body, uint16(len(key)))
	body = append(body, key...)
	body = append(body, `{"schedule": {
  "graph": "<a>"
},"summary":{"algorithm":"R-LTF"}}`...)
	data := binary.LittleEndian.AppendUint32(append([]byte(nil), snapshotMagic[:]...), snapshotVersion)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(body)))
	data = append(data, body...)
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(body))
	decoded, skipped, err := decodeSnapshot(data)
	if err != nil || skipped != 0 || len(decoded) != 1 {
		t.Fatalf("entries=%d skipped=%d err=%v, want the one entry", len(decoded), skipped, err)
	}
	if got, want := string(decoded[0].out.ScheduleJSON), `{"graph":"\u003ca\u003e"}`; got != want {
		t.Fatalf("restored schedule %s, want %s", got, want)
	}
}

func TestSnapshotReplayPreservesLRUOrder(t *testing.T) {
	entries := snapTestEntries(t, 3) // 4 entries, oldest first
	data := encodeSnapshot(entries)
	decoded, _, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying into a smaller cache must keep the most recently used
	// entries — the file is oldest-first so plain Puts evict the oldest.
	cache := newLRUCache(2)
	for _, e := range decoded {
		cache.Put(e.key, e.out)
	}
	for _, e := range entries[:2] {
		if _, ok := cache.Get(e.key); ok {
			t.Fatalf("oldest entry %q survived a capacity-2 replay", e.key)
		}
	}
	for _, e := range entries[2:] {
		if _, ok := cache.Get(e.key); !ok {
			t.Fatalf("newest entry %q evicted by a capacity-2 replay", e.key)
		}
	}
}

// FuzzSnapshotDecode pins the replay contract on arbitrary bytes: the
// decoder never panics, never fabricates oversized allocations, and an
// intact prefix of a real snapshot decodes to real entries.
// TestSimulateAfterSnapshotRestore covers the one outcome that carries no
// in-memory schedule: a snapshot keeps only the rendered bytes, so a
// warm-started handle's Simulate rebuilds the schedule from them. The
// sweep must match the original handle's, with no solver call.
func TestSimulateAfterSnapshotRestore(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "cache.snap")
	cfg := Config{SnapshotPath: snap, SnapshotInterval: -1}
	scenarios := []Scenario{
		{Name: "free"},
		{Name: "sync", Synchronous: true},
		{Name: "crash", CrashProcs: []int{0}, CrashAt: 5},
	}
	ctx := context.Background()

	h1 := NewHandle(cfg)
	if _, _, err := h1.WarmStart(); err != nil {
		t.Fatal(err)
	}
	_, want, err := h1.Simulate(ctx, solveSpec(t, feasibleRequest(2)), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	h2 := NewHandle(cfg)
	if replayed, _, err := h2.WarmStart(); err != nil || replayed != 1 {
		t.Fatalf("warm start replayed %d entries (%v), want 1", replayed, err)
	}
	spec := solveSpec(t, feasibleRequest(2))
	out, got, err := h2.Simulate(ctx, spec, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached || out.Schedule != nil {
		t.Fatalf("restored outcome cached=%v schedule=%v: want a cache hit carrying bytes only", out.Cached, out.Schedule != nil)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored sweep %+v, want %+v", got, want)
	}
	if m := h2.Metrics(); m.SolveCalls != 0 {
		t.Fatalf("solveCalls = %d, want 0", m.SolveCalls)
	}

	// An out-of-range crash processor is an error, not an engine panic.
	for _, u := range []int{-1, 4, 99} {
		if _, _, err := h2.Simulate(ctx, spec, []Scenario{{CrashProcs: []int{u}}}); err == nil {
			t.Errorf("crash processor %d: no error", u)
		}
	}
}

// The LRU keeps an outcome's rendered bytes, not its Schedule: the solve
// that fills the entry replies with the schedule, every hit with the same
// bytes alone, and Simulate rebuilds the schedule from them with the same
// sweep as the miss.
func TestCacheKeepsOnlyRenderedBytes(t *testing.T) {
	h := NewHandle(Config{})
	ctx := context.Background()
	spec := solveSpec(t, feasibleRequest(2))
	scenarios := []Scenario{{Name: "free"}, {Name: "crash", CrashProcs: []int{0}, CrashAt: 5}}
	miss, want, err := h.Simulate(ctx, spec, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cached || miss.Schedule == nil {
		t.Fatalf("first solve cached=%v schedule=%v: want the solve's own schedule", miss.Cached, miss.Schedule != nil)
	}
	stored, ok := h.cache.Get(miss.Hash)
	if !ok || stored.Schedule != nil || !bytes.Equal(stored.ScheduleJSON, miss.ScheduleJSON) {
		t.Fatalf("cache entry present=%v schedule=%v: want the rendered bytes only", ok, ok && stored.Schedule != nil)
	}
	hit, got, err := h.Simulate(ctx, spec, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Schedule != nil || !bytes.Equal(hit.ScheduleJSON, miss.ScheduleJSON) {
		t.Fatalf("hit cached=%v schedule=%v: want the cached bytes only", hit.Cached, hit.Schedule != nil)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sweep on a hit %+v, want %+v", got, want)
	}
	if m := h.Metrics(); m.SolveCalls != 1 {
		t.Fatalf("solveCalls = %d, want 1", m.SolveCalls)
	}
}

func FuzzSnapshotDecode(f *testing.F) {
	h := NewHandle(Config{})
	req := feasibleRequest(2)
	if _, err := h.Solve(context.Background(), solveSpec(f, req)); err != nil {
		f.Fatal(err)
	}
	valid := encodeSnapshot(h.cache.entries())
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	bumped := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(bumped[len(snapshotMagic):], 99) // version bump
	f.Add(bumped)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40 // bit flip
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(snapshotMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, skipped, _ := decodeSnapshot(data)
		if skipped < 0 {
			t.Fatal("negative skip count")
		}
		for _, e := range entries {
			if len(e.key) == 0 || len(e.key) > maxSnapKey {
				t.Fatalf("decoded key length %d outside (0,%d]", len(e.key), maxSnapKey)
			}
			if (len(e.out.ScheduleJSON) == 0) == (e.out.Infeasible == nil) {
				t.Fatal("decoded entry violates the exactly-one-of invariant")
			}
		}
	})
}
