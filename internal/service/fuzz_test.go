package service

// Native fuzz targets for the wire boundary — the only place untrusted
// bytes enter the stack. Three properties are pinned:
//
//   - FuzzWireDecode: for any JSON that decodes and builds, encoding is a
//     fixed point — decode(encode(decode(x))) re-encodes byte-identically.
//     This is the byte-stability contract the cache and proxies rely on,
//     extended from the structured property tests to adversarial input.
//   - FuzzCanonicalProblemHash: the canonical problem hash never panics on
//     any input that builds, is deterministic, and is invariant under a
//     wire round-trip of the problem (so cache keys computed from decoded
//     requests equal keys computed from re-encoded ones).
//   - FuzzReplanHandler: any /v1/replan body, committed schedule included,
//     gets a status from the documented set and never a panic.
//
// Seed corpus: testdata/fuzz/<target>/, and the requests FuzzReplanHandler
// adds itself. CI runs each target for a short budget (make fuzz);
// `go test -fuzz` explores from the same seeds.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
)

// decodeBuildable decodes a SolveRequest and builds its graph and
// platform, reporting ok=false for input that the wire layer rejects —
// rejection is a valid outcome for adversarial bytes, never a failure.
func decodeBuildable(data []byte) (req SolveRequest, ok bool) {
	if err := json.Unmarshal(data, &req); err != nil {
		return req, false
	}
	return req, true
}

func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(`{"v":1,"graph":{"tasks":[{"work":1},{"work":2}],"edges":[{"from":0,"to":1,"volume":1}]},"platform":{"speeds":[1,1],"bandwidth":[[0,1],[1,0]]},"options":{"period":4}}`))
	f.Add([]byte(`{"graph":{"tasks":[{"name":"α","work":0.5}]},"platform":{"speeds":[2],"bandwidth":[[0]]}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, ok := decodeBuildable(data)
		if !ok {
			return
		}
		if g, err := req.Graph.Build(); err == nil {
			enc1, err := json.Marshal(GraphDTO(g))
			if err != nil {
				t.Fatalf("marshal decoded graph: %v", err)
			}
			var w2 Graph
			if err := json.Unmarshal(enc1, &w2); err != nil {
				t.Fatalf("re-decode emitted graph: %v", err)
			}
			g2, err := w2.Build()
			if err != nil {
				t.Fatalf("re-build emitted graph: %v", err)
			}
			enc2, err := json.Marshal(GraphDTO(g2))
			if err != nil {
				t.Fatalf("re-marshal graph: %v", err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("graph encoding not a fixed point:\n first %s\nsecond %s", enc1, enc2)
			}
		}
		if p, err := req.Platform.Build(); err == nil {
			enc1, err := json.Marshal(PlatformDTO(p))
			if err != nil {
				t.Fatalf("marshal decoded platform: %v", err)
			}
			var w2 Platform
			if err := json.Unmarshal(enc1, &w2); err != nil {
				t.Fatalf("re-decode emitted platform: %v", err)
			}
			p2, err := w2.Build()
			if err != nil {
				t.Fatalf("re-build emitted platform: %v", err)
			}
			enc2, err := json.Marshal(PlatformDTO(p2))
			if err != nil {
				t.Fatalf("re-marshal platform: %v", err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("platform encoding not a fixed point:\n first %s\nsecond %s", enc1, enc2)
			}
		}
	})
}

func FuzzCanonicalProblemHash(f *testing.F) {
	f.Add([]byte(`{"v":1,"graph":{"name":"g","tasks":[{"work":1},{"work":2},{"work":3}],"edges":[{"from":0,"to":2},{"from":1,"to":2,"volume":2.5}]},"platform":{"speeds":[1,2],"bandwidth":[[0,3],[3,0]]},"options":{"algorithm":"ltf","eps":1,"period":9}}`))
	f.Add([]byte(`{"graph":{"tasks":[{"work":1e300}]},"platform":{"speeds":[1e-300],"bandwidth":[[0]]},"options":{"period":0.125}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, ok := decodeBuildable(data)
		if !ok {
			return
		}
		g, err := req.Graph.Build()
		if err != nil {
			return
		}
		p, err := req.Platform.Build()
		if err != nil {
			return
		}
		s, err := req.Options.Solver()
		if err != nil {
			return
		}
		h1 := ProblemHash(g, p, s)
		if len(h1) != 64 {
			t.Fatalf("hash %q is not 64 hex chars", h1)
		}
		if h2 := ProblemHash(g, p, s); h2 != h1 {
			t.Fatalf("hash not deterministic: %s vs %s", h1, h2)
		}
		// The hash is a function of the problem, not of its wire spelling:
		// a DTO round-trip must preserve it.
		genc, err := json.Marshal(GraphDTO(g))
		if err != nil {
			t.Fatalf("marshal graph: %v", err)
		}
		penc, err := json.Marshal(PlatformDTO(p))
		if err != nil {
			t.Fatalf("marshal platform: %v", err)
		}
		var gw Graph
		var pw Platform
		if err := json.Unmarshal(genc, &gw); err != nil {
			t.Fatalf("re-decode graph: %v", err)
		}
		if err := json.Unmarshal(penc, &pw); err != nil {
			t.Fatalf("re-decode platform: %v", err)
		}
		g2, err := gw.Build()
		if err != nil {
			t.Fatalf("re-build graph: %v", err)
		}
		p2, err := pw.Build()
		if err != nil {
			t.Fatalf("re-build platform: %v", err)
		}
		if h3 := ProblemHash(g2, p2, s); h3 != h1 {
			t.Fatalf("hash not stable under wire round-trip: %s vs %s", h1, h3)
		}
	})
}

// FuzzReplanHandler posts the fuzz bytes as a /v1/replan body through the
// server's handler. Every reply must be a 200, a typed refusal (400 or
// 413), an infeasibility or budget conflict (409), or the deadline a body
// may set itself through timeoutMs (504) — never a 500 — and the panics
// counter /metrics reports must stay 0. Seeds: the replan requests of the service golden (a
// speed-up, a lost processor, a broken and a missing schedule) and every
// malformation TestReplanRejectsMalformedRequests refuses.
func FuzzReplanHandler(f *testing.F) {
	good := replanRequest(f, 2, PlatformDelta{Speed: []ProcSpeed{{Proc: 1, Speed: 2}}})
	lost, broken, missing := good, good, good
	lost.Delta = PlatformDelta{Lost: []int{3}}
	broken.Schedule = json.RawMessage(`{"eps":1}`)
	missing.Schedule = nil
	seeds := []ReplanRequest{good, lost, broken, missing}
	bad := malformedReplans(f, good)
	names := make([]string, 0, len(bad))
	for name := range bad {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		seeds = append(seeds, bad[name])
	}
	for _, req := range seeds {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	srv := New(Config{})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/replan", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict,
			http.StatusRequestEntityTooLarge, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if m := srv.Metrics(); m.Panics != 0 {
			t.Fatalf("%d panics after body %q", m.Panics, body)
		}
	})
}
