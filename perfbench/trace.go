package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the ID of the enclosing span
// (-1 for a root); every span of a run carries the run's ID.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; later spans are counted
// as dropped instead of growing it.
const maxSpans = 1 << 18

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so the measured code path is
// the same call sequence either way.
type Tracer struct {
	runID  string
	origin time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewTracer starts a trace whose spans share runID.
func NewTracer(runID string) *Tracer {
	return &Tracer{runID: runID, origin: time.Now()}
}

// Begin opens a span under parent and returns its ID (-1 when untraced
// or dropped; a child of -1 is a root).
func (t *Tracer) Begin(name string, parent int, start time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.origin)), End: -1})
	return id
}

// End closes span id at end.
func (t *Tracer) End(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(end.Sub(t.origin))
	t.mu.Unlock()
}

// Record adds an already finished span and returns its ID.
func (t *Tracer) Record(name string, parent int, start, end time.Time) int {
	id := t.Begin(name, parent, start)
	t.End(id, end)
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON to path.
func (t *Tracer) WriteFile(path string, meta map[string]any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	doc := struct {
		RunID   string         `json:"run_id"`
		Meta    map[string]any `json:"meta"`
		Dropped int            `json:"dropped"`
		Spans   []Span         `json:"spans"`
	}{t.runID, meta, t.dropped, t.spans}
	raw, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other and may stick out of
// the parent; only their union inside [start, end] is subtracted.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, c := range iv {
		if curHi < curLo || c[0] > curHi {
			if curHi >= curLo {
				covered += curHi - curLo
			}
			curLo, curHi = c[0], c[1]
			continue
		}
		curHi = max(curHi, c[1])
	}
	if curHi >= curLo {
		covered += curHi - curLo
	}
	return end - start - covered
}

// childrenOf groups the closed spans by parent ID.
func childrenOf(spans []Span) map[int][][2]int64 {
	out := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			out[s.Parent] = append(out[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	return out
}
