package schedule

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"streamsched/internal/platform"
)

func TestJSONRoundTrip(t *testing.T) {
	s := fixture(t)
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(data, s.G, s.P)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped schedule invalid: %v", err)
	}
	if back.Stages() != s.Stages() || back.LatencyBound() != s.LatencyBound() {
		t.Fatal("metrics changed across round trip")
	}
	if back.Algorithm != s.Algorithm || back.Eps != s.Eps || back.Period != s.Period {
		t.Fatal("header changed across round trip")
	}
	for _, r := range s.All() {
		br := back.Replica(r.Ref)
		if br == nil || br.Proc != r.Proc || br.Start != r.Start || len(br.In) != len(r.In) {
			t.Fatalf("replica %v changed", r.Ref)
		}
	}
}

func TestJSONContent(t *testing.T) {
	s := fixture(t)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	// json.Marshal compacts the output of custom MarshalJSON methods.
	str := string(data)
	for _, want := range []string{`"algorithm":"test"`, `"stages":2`, `"name":"a"`} {
		if !strings.Contains(str, want) {
			t.Fatalf("JSON missing %q:\n%s", want, str)
		}
	}
}

func TestLoadJSONRejectsMismatch(t *testing.T) {
	s := fixture(t)
	data, _ := s.MarshalJSON()
	wrongP := platform.Homogeneous(2, 1, 1)
	if _, err := LoadJSON(data, s.G, wrongP); err == nil {
		t.Fatal("platform mismatch accepted")
	}
	wrongG := chainAB()
	wrongG.AddTask("extra", 1)
	if _, err := LoadJSON(data, wrongG, s.P); err == nil {
		t.Fatal("graph mismatch accepted")
	}
}

func TestLoadJSONRejectsGarbage(t *testing.T) {
	s := fixture(t)
	if _, err := LoadJSON([]byte("{not json"), s.G, s.P); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadJSON([]byte(`{"period":0,"tasks":2,"procs":4}`), s.G, s.P); err == nil {
		t.Fatal("zero period accepted")
	}
}

// malformedProbes are structurally broken variants of fixture's schedule:
// LoadJSON must reject each with an error, never a panic, a partial
// schedule, or an allocation sized by an unchecked ε. fixture's replicas
// serialize as a(1), a(2), b(1), b(2); b's copies each receive from a copy
// of a.
var malformedProbes = []struct {
	name   string
	mutate func(in *jsonSchedule)
}{
	{"copy 7 at eps 1", func(in *jsonSchedule) { in.Replicas[0].Copy = 7 }},
	{"copy -1", func(in *jsonSchedule) { in.Replicas[0].Copy = -1 }},
	{"task 999", func(in *jsonSchedule) { in.Replicas[0].Task = 999 }},
	{"task -1", func(in *jsonSchedule) { in.Replicas[0].Task = -1 }},
	{"proc 999", func(in *jsonSchedule) { in.Replicas[0].Proc = 999 }},
	{"proc -1", func(in *jsonSchedule) { in.Replicas[0].Proc = -1 }},
	{"replica listed twice", func(in *jsonSchedule) { in.Replicas[1] = in.Replicas[0] }},
	{"replica appended twice", func(in *jsonSchedule) { in.Replicas = append(in.Replicas, in.Replicas[3]) }},
	{"replica missing", func(in *jsonSchedule) { in.Replicas = in.Replicas[:3] }},
	{"no replicas", func(in *jsonSchedule) { in.Replicas = nil }},
	{"eps 2147483648", func(in *jsonSchedule) { in.Eps = 2147483648 }},
	{"eps equals procs", func(in *jsonSchedule) { in.Eps = 4 }},
	{"eps -1", func(in *jsonSchedule) { in.Eps = -1 }},
	{"input from a non-predecessor", func(in *jsonSchedule) { in.Replicas[2].In[0].FromTask = 1 }},
	{"input from task 999", func(in *jsonSchedule) { in.Replicas[2].In[0].FromTask = 999 }},
	{"input from task -1", func(in *jsonSchedule) { in.Replicas[2].In[0].FromTask = -1 }},
	{"input from copy 2 at eps 1", func(in *jsonSchedule) { in.Replicas[2].In[0].FromCopy = 2 }},
	{"input into a source task", func(in *jsonSchedule) {
		in.Replicas[0].In = []jsonComm{{FromTask: 1, FromCopy: 0, Volume: 2, Start: 0, Finish: 0}}
	}},
	{"latency bound overflows", func(in *jsonSchedule) { in.Period = 1e308 }},
}

// malformed renders probe's mutation of s.
func malformed(tb testing.TB, s *Schedule, mutate func(in *jsonSchedule)) []byte {
	tb.Helper()
	data, err := s.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	var in jsonSchedule
	if err := json.Unmarshal(data, &in); err != nil {
		tb.Fatal(err)
	}
	mutate(&in)
	bad, err := json.Marshal(in)
	if err != nil {
		tb.Fatal(err)
	}
	return bad
}

// TestLoadJSONRejectsMalformedStructure feeds LoadJSON the malformedProbes.
func TestLoadJSONRejectsMalformedStructure(t *testing.T) {
	s := fixture(t)
	for _, tc := range malformedProbes {
		t.Run(tc.name, func(t *testing.T) {
			if got, err := LoadJSON(malformed(t, s, tc.mutate), s.G, s.P); err == nil {
				t.Fatalf("malformed schedule accepted with %d replicas", len(got.All()))
			}
		})
	}
}

// FuzzScheduleJSON pins the interchange encoding as a fixed point: for any
// bytes LoadJSON accepts against fixture's graph and platform, MarshalJSON
// renders bytes that LoadJSON accepts again and that render back to the
// same bytes — which are also what json.Marshal returns. Seeds: fixture's
// schedule, compact and indented, and the malformedProbes.
func FuzzScheduleJSON(f *testing.F) {
	s := fixture(f)
	data, err := s.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	var indented bytes.Buffer
	if err := json.Indent(&indented, data, "", "  "); err != nil {
		f.Fatal(err)
	}
	f.Add(indented.Bytes())
	for _, tc := range malformedProbes {
		f.Add(malformed(f, s, tc.mutate))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := LoadJSON(data, s.G, s.P)
		if err != nil {
			return
		}
		out, err := in.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted schedule does not render: %v", err)
		}
		back, err := LoadJSON(out, s.G, s.P)
		if err != nil {
			t.Fatalf("rendered schedule rejected: %v\n%s", err, out)
		}
		again, err := back.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("rendering is not a fixed point:\n%s\n%s", out, again)
		}
		if viaMarshal, err := json.Marshal(in); err != nil || !bytes.Equal(viaMarshal, out) {
			t.Fatalf("json.Marshal differs from MarshalJSON (%v):\n%s\n%s", err, viaMarshal, out)
		}
	})
}
