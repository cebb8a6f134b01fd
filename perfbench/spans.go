package main

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the ID of the span that caused it (0 for
// a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and its IDs are 0, so the untraced run pays one branch
// per call site.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string, parent int, op int64) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// total returns the summed length in seconds of every span called name.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reader wraps the generator's reader so every Read becomes a
// "trace.read" span under parent; untraced, it returns r unchanged.
func (t *tracer) reader(r io.Reader, parent int, op int64) io.Reader {
	if !t.on {
		return r
	}
	return &spanReader{r: r, t: t, parent: parent, op: op}
}

type spanReader struct {
	r      io.Reader
	t      *tracer
	parent int
	op     int64
}

func (s *spanReader) Read(p []byte) (int, error) {
	id := s.t.begin("trace.read", s.parent, s.op)
	n, err := s.r.Read(p)
	s.t.end(id)
	return n, err
}
