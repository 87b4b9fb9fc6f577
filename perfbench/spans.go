package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into the program, recorded from outside it.
type span struct {
	Name   string
	ID     string // the cell or job this span belongs to
	Parent int    // index of the enclosing span, -1 for a root
	Track  int    // timeline: 0 for a sim grid, client index+1 for serve-mix
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory; a nil *tracer records nothing, so the
// untraced paths pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, id string, parent, track int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Track: track, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// total sums the durations of the finished spans with the given name.
// A span left open by a failed call is not counted.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > s.Start {
			d += s.End - s.Start
		}
	}
	return d
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes every span as Chrome-trace JSON.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // left open by a failed call
		}
		args := map[string]string{"id": s.ID}
		if s.Parent >= 0 {
			args["parent"] = t.spans[s.Parent].Name
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Track, Args: args,
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
