package schedule

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

// referenceDTO is the serialized form MarshalJSON used to hand to
// json.Marshal, kept so the direct encoder can be compared with the
// reflection encoder.
func referenceDTO(s *Schedule) jsonSchedule {
	stages := s.StageNumbers()
	S := maxStage(stages)
	out := jsonSchedule{
		Algorithm: s.Algorithm,
		Eps:       s.Eps,
		Period:    s.Period,
		Graph:     s.G.Name(),
		Tasks:     s.G.NumTasks(),
		Procs:     s.P.NumProcs(),
		Stages:    S,
		Latency:   s.latencyBound(S),
	}
	for _, r := range s.All() {
		jr := jsonReplica{
			Task:   int(r.Ref.Task),
			Name:   s.G.Task(r.Ref.Task).Name,
			Copy:   r.Ref.Copy,
			Proc:   int(r.Proc),
			Start:  r.Start,
			Finish: r.Finish,
			Stage:  stages[s.Index(r.Ref)],
		}
		for _, c := range r.In {
			jr.In = append(jr.In, jsonComm{
				FromTask: int(c.From.Task),
				FromCopy: c.From.Copy,
				Volume:   c.Volume,
				Start:    c.Start,
				Finish:   c.Finish,
			})
		}
		out.Replicas = append(out.Replicas, jr)
	}
	return out
}

// referenceLoad is LoadJSON with json.Unmarshal as its only decoder.
func referenceLoad(data []byte, s *Schedule) (*Schedule, error) {
	var in jsonSchedule
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	return in.build(s.G, s.P)
}

// codecSeeds are documents at the edges of the canonical form, built from
// fixture's: its rendering compact and indented, the malformedProbes, odd
// strings escaped and raw, floats on both sides of encoding/json's format
// switches at 1e-6 and 1e21 and −0, and integers spelled with a fraction,
// an exponent or 19 digits.
func codecSeeds(tb testing.TB, s *Schedule) [][]byte {
	tb.Helper()
	data, err := s.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, data, "", "  "); err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{data, indented.Bytes()}
	for _, tc := range malformedProbes {
		seeds = append(seeds, malformed(tb, s, tc.mutate))
	}
	const odd = "<a> & \"b\" \\ \x01\x1f\t \u2028\u2029 \xff"
	for _, mutate := range []func(in *jsonSchedule){
		func(in *jsonSchedule) { in.Algorithm = odd },
		func(in *jsonSchedule) { in.Graph, in.Replicas[1].Name = odd, odd },
		func(in *jsonSchedule) { in.Replicas[2].In[0].Volume = 1e-6 },
		func(in *jsonSchedule) { in.Replicas[2].In[0].Volume = math.Nextafter(1e-6, 0) },
		func(in *jsonSchedule) { in.Replicas[3].In[0].Volume = 1e21 },
		func(in *jsonSchedule) { in.Replicas[3].In[0].Volume = math.Nextafter(1e21, 0) },
		func(in *jsonSchedule) { in.Replicas[0].Start = math.Copysign(0, -1) },
		func(in *jsonSchedule) { in.Replicas[1].Finish = 5e-324 },
		func(in *jsonSchedule) { in.Period = 1.7976931348623157e308 / 4 },
	} {
		seeds = append(seeds, malformed(tb, s, mutate))
	}
	// Raw odd strings: valid JSON that needs no escape, then a raw invalid
	// UTF-8 byte, which json.Unmarshal replaces with U+FFFD.
	for _, name := range []string{"<a> & \u2028\u2029 é", "bad \xff byte"} {
		seeds = append(seeds, bytes.Replace(data, []byte(`"algorithm":"test"`), []byte(`"algorithm":"`+name+`"`), 1))
	}
	for _, spelling := range []string{"1.0", "1e0", "1E+0", "-0", "01", "1000000000000000001", "10000000000000000000", "999999999999999999"} {
		seeds = append(seeds, bytes.Replace(data, []byte(`"eps":1`), []byte(`"eps":`+spelling), 1))
		seeds = append(seeds, bytes.Replace(data, []byte(`"copy":1`), []byte(`"copy":`+spelling), 1))
	}
	for _, spelling := range []string{"1.0", "1e0", "0.1e1", "1E+0", "-0", "01", "1.", ".5", "1e400", "1e-400"} {
		seeds = append(seeds, bytes.Replace(data, []byte(`"volume":2`), []byte(`"volume":`+spelling), 1))
	}
	return seeds
}

// FuzzLoadJSON checks the codec against encoding/json on any bytes:
//   - the canonical decoder either declines or yields the serialized form
//     json.Unmarshal decodes, field for field;
//   - LoadJSON returns the schedule, or the error text, that json.Unmarshal
//     followed by the same checks returns;
//   - MarshalJSON of every accepted schedule equals json.Marshal of its
//     serialized form.
func FuzzLoadJSON(f *testing.F) {
	s := fixture(f)
	for _, seed := range codecSeeds(f, s) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast jsonSchedule
		if fast.decodeCanonical(data) {
			var ref jsonSchedule
			if err := json.Unmarshal(data, &ref); err != nil {
				t.Fatalf("canonical decoder accepted what json.Unmarshal rejects: %v", err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("canonical decoder differs from json.Unmarshal:\n got %+v\nwant %+v", fast, ref)
			}
		}
		got, err := LoadJSON(data, s.G, s.P)
		want, wantErr := referenceLoad(data, s)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("LoadJSON error %v, json.Unmarshal path %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("LoadJSON built a different schedule than the json.Unmarshal path")
		}
		out, err := got.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted schedule does not render: %v", err)
		}
		ref, err := json.Marshal(referenceDTO(got))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, ref) {
			t.Fatalf("MarshalJSON differs from json.Marshal:\n got %s\nwant %s", out, ref)
		}
	})
}

// TestCanonicalDecodesGoldens: every schedule and repair golden holds
// MarshalJSON's bytes, so each must take LoadJSON's canonical path and
// decode to what json.Unmarshal decodes; a fall back to reflection would
// lose the speed-up without failing any other test.
func TestCanonicalDecodesGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, path := range paths {
		if strings.HasPrefix(filepath.Base(path), "sim_") {
			continue // simulation results, not schedules
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data = bytes.TrimSuffix(data, []byte("\n"))
		var fast, ref jsonSchedule
		if !fast.decodeCanonical(data) {
			t.Errorf("%s: canonical decoder declined a MarshalJSON document", path)
			continue
		}
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("%s: canonical decoder differs from json.Unmarshal", path)
		}
		n++
	}
	if n < 42 {
		t.Fatalf("decoded %d schedule goldens, want the 36 schedules and 6 repairs", n)
	}
}
