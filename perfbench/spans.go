package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, the
// span that caused it, and start and end in nanoseconds since the run
// began. Attrs carries counts measured at the same boundary, such as the
// engine tracer's operator and primitive totals for a query.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps the spans of a traced run in memory until the run ends.
// A nil *spanLog records nothing, so untraced runs pay one nil check per
// boundary. It is safe for concurrent use.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(l.spans)
}

// end closes span id, attaching attrs.
func (l *spanLog) end(id int, attrs map[string]any) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.End = now
	s.Attrs = attrs
}

// write stores the spans as a JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
