// Package trace exports schedules and simulated executions in the Chrome
// trace-event format (the JSON array flavour), viewable in chrome://tracing
// or Perfetto: processors become "threads", task replicas become duration
// events, and transfers appear on per-processor port rows. This gives the
// repository a real inspection story beyond ASCII Gantt charts.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"

	"streamsched/internal/schedule"
)

// Span is one traced activity.
type Span struct {
	// Name labels the event (task name, or "t3(2)→t5(1)" for transfers).
	Name string
	// Lane identifies the row: "P3" for compute, "P3:send"/"P3:recv" for
	// ports.
	Lane string
	// Start and End are in schedule time units.
	Start, End float64
	// Instant marks a point-in-time event (rendered ph="i" at Start; End
	// is ignored). Request traces use these for solver phase events.
	// Omitted from JSON when false so schedule/sim exports — none of which
	// emit instants — stay byte-identical to their golden files.
	Instant bool `json:",omitempty"`
	// Args carries extra metadata (item index, stage, volume, ...).
	Args map[string]any
}

// chromeEvent is the trace-event JSON shape ("X" = complete event,
// "i" = instant event with thread scope).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	Pid   int            `json:"pid"`
	Tid   string         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeJSON renders the spans as a Chrome trace-event array. Time units
// are mapped 1:1 onto microseconds (the format's native unit).
func ChromeJSON(spans []Span) ([]byte, error) {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.Instant {
			events = append(events, chromeEvent{
				Name: s.Name,
				Cat:  "streamsched",
				Ph:   "i",
				Ts:   s.Start,
				Pid:  1,
				Tid:  s.Lane,
				// "t" scopes the instant marker to its thread row.
				Scope: "t",
				Args:  s.Args,
			})
			continue
		}
		if s.End < s.Start {
			return nil, fmt.Errorf("trace: span %q inverted [%v,%v]", s.Name, s.Start, s.End)
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  "streamsched",
			Ph:   "X",
			Ts:   s.Start,
			Dur:  s.End - s.Start,
			Pid:  1,
			Tid:  s.Lane,
			Args: s.Args,
		})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Tid != events[j].Tid {
			return events[i].Tid < events[j].Tid
		}
		return events[i].Ts < events[j].Ts
	})
	return json.MarshalIndent(events, "", " ")
}

// FromSchedule converts one static iteration of a schedule into spans:
// every replica on its processor's compute lane, every cross-processor
// transfer on the send and receive port lanes.
func FromSchedule(s *schedule.Schedule) []Span {
	stages := s.StageNumbers()
	var spans []Span
	for _, r := range s.All() {
		name := fmt.Sprintf("%s(%d)", s.G.Task(r.Ref.Task).Name, r.Ref.Copy+1)
		spans = append(spans, Span{
			Name:  name,
			Lane:  fmt.Sprintf("P%d", r.Proc+1),
			Start: r.Start,
			End:   r.Finish,
			Args: map[string]any{
				"task":  int(r.Ref.Task),
				"copy":  r.Ref.Copy,
				"stage": stages[s.Index(r.Ref)],
			},
		})
		for _, c := range r.In {
			src := s.Replica(c.From)
			if src == nil || src.Proc == r.Proc {
				continue
			}
			cname := fmt.Sprintf("%v→%v", c.From, r.Ref)
			args := map[string]any{"volume": c.Volume}
			spans = append(spans, Span{
				Name: cname, Lane: fmt.Sprintf("P%d:send", src.Proc+1),
				Start: c.Start, End: c.Finish, Args: args,
			})
			spans = append(spans, Span{
				Name: cname, Lane: fmt.Sprintf("P%d:recv", r.Proc+1),
				Start: c.Start, End: c.Finish, Args: args,
			})
		}
	}
	return spans
}
