package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's exported entry point. Spans of one tick share
// Tick; Cause names the span whose end started this one.
type span struct {
	Tick  int64  `json:"tick"`
	Name  string `json:"name"`
	Node  int    `json:"node"`
	Cause string `json:"cause,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanLog keeps a run's spans in memory; they are written out once the
// run ends. A nil *spanLog records nothing, so untraced runs pass nil.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// durations returns the durations in µs of the spans named name whose
// tick is in (fromTick, toTick].
func (l *spanLog) durations(name string, fromTick, toTick int64) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.Tick > fromTick && s.Tick <= toTick {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
