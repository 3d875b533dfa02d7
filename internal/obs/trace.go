package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// TraceCollector accumulates every event published while attached and
// exports the run as Chrome trace-event JSON, viewable in
// chrome://tracing or https://ui.perfetto.dev. Unlike ring
// subscriptions it is unbounded: a trace that silently dropped events
// would misrepresent the causal record.
type TraceCollector struct {
	mu     sync.Mutex
	events []Event
	sub    *Subscription
}

// Collect attaches a collector to the bus.
func Collect(bus *Bus) *TraceCollector {
	tc := &TraceCollector{}
	tc.sub = bus.SubscribeFunc(func(ev Event) {
		tc.mu.Lock()
		tc.events = append(tc.events, ev)
		tc.mu.Unlock()
	})
	return tc
}

// Close detaches the collector; collected events remain readable.
func (tc *TraceCollector) Close() {
	if tc.sub != nil {
		tc.sub.Close()
	}
}

// Len returns how many events were collected.
func (tc *TraceCollector) Len() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.events)
}

// Events returns a snapshot of the collected events.
func (tc *TraceCollector) Events() []Event {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return append([]Event(nil), tc.events...)
}

// chromeEvent is one entry of the Chrome trace-event format. Spans map
// to complete events (ph "X"), instants to instant events (ph "i"),
// and node names to per-thread metadata (ph "M").
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format of the trace-event spec.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the collected events as Chrome trace-event
// JSON. Each node becomes one named "thread"; system-level events
// (empty Node) land on thread 0.
func (tc *TraceCollector) WriteChromeTrace(w io.Writer) error {
	events := tc.Events()
	const pid = 1 // one process; each node is one of its threads

	// Stable node → tid assignment, sorted for determinism.
	nodes := make(map[string]int)
	var names []string
	for _, ev := range events {
		if _, ok := nodes[ev.Node]; !ok {
			nodes[ev.Node] = 0
			names = append(names, ev.Node)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		nodes[n] = i
	}

	out := make([]chromeEvent, 0, len(events)+len(names))
	for _, n := range names {
		label := n
		if label == "" {
			label = "system"
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: nodes[n],
			Args: map[string]any{"name": label},
		})
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Kind,
			Cat:  category(ev.Kind),
			TS:   micros(ev.At),
			PID:  pid,
			TID:  nodes[ev.Node],
		}
		args := map[string]any{}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		if ev.Span != 0 {
			args["span"] = ev.Span
		}
		if ev.Parent != 0 {
			args["parent"] = ev.Parent
		}
		if len(args) > 0 {
			ce.Args = args
		}
		if ev.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = micros(ev.Dur)
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		out = append(out, ce)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"})
}

// WriteChromeTraceFile writes the trace to path, creating or
// truncating it.
func (tc *TraceCollector) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tc.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// category derives the trace category from the kind's first dotted
// segment ("gossip.suspect" → "gossip").
func category(kind string) string {
	for i := 0; i < len(kind); i++ {
		if kind[i] == '.' {
			return kind[:i]
		}
	}
	return kind
}

func micros(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}
