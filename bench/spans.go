package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanLog keeps the harness-side spans of a traced run in memory and
// writes them at exit as Chrome-trace JSON (chrome://tracing,
// ui.perfetto.dev). The spans are recorded around the calls into each
// layer, from the benchmark's own files. A nil *spanLog records
// nothing, so untraced runs pay nothing.
type spanLog struct {
	mu     sync.Mutex
	t0     time.Time
	events []traceEvent
}

// traceEvent is one Chrome-trace event: ph "X" is a complete span,
// "b"/"e" open and close an async span that shares an id with the
// request that caused it.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs since the run started
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) us(t time.Time) float64 { return float64(t.Sub(l.t0)) / 1e3 }

// begin opens a span on one track (tid) and returns the function that
// closes it. Spans on one track nest by time.
func (l *spanLog) begin(name string, tid int) func() {
	if l == nil {
		return func() {}
	}
	start := time.Now()
	return func() { l.complete(name, tid, start, time.Now(), nil) }
}

func (l *spanLog) complete(name string, tid int, start, end time.Time, args map[string]any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, traceEvent{
		Name: name, Cat: "bench", Ph: "X", Ts: l.us(start), Dur: float64(end.Sub(start)) / 1e3,
		Pid: 1, Tid: tid, Args: args,
	})
	l.mu.Unlock()
}

// async records a span that may overlap others on its track and is tied
// to the span that caused it by id.
func (l *spanLog) async(name, id string, tid int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events,
		traceEvent{Name: name, Cat: "repl", Ph: "b", Ts: l.us(start), Pid: 1, Tid: tid, ID: id},
		traceEvent{Name: name, Cat: "repl", Ph: "e", Ts: l.us(end), Pid: 1, Tid: tid, ID: id})
	l.mu.Unlock()
}

func (l *spanLog) writeFile(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	data, err := json.Marshal(map[string]any{"traceEvents": l.events, "displayTimeUnit": "ms"})
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
