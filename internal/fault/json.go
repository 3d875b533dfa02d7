package fault

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/simnet"
)

// JSON encoding for schedules. Durations are encoded as Go duration
// strings ("2m30s"), which time.ParseDuration round-trips exactly, and
// kinds by their String() names, so corpus files stay readable and
// stable across refactors of the Kind enum values. A Schedule encodes
// as a bare array of events in insertion order: injection order at
// equal times is observable (the injector applies equal-time events
// stably), so serialization must preserve it for byte-identical
// replays.

// kindByName is the inverse of kindNames, built once at init.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// KindFromString resolves a Kind from its String() name.
func KindFromString(name string) (Kind, error) {
	if k, ok := kindByName[name]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("fault: unknown kind %q", name)
}

// MarshalText encodes the kind as its String() name, so encoding/json
// (and any other text-based encoder) uses stable names, not enum
// integers.
func (k Kind) MarshalText() ([]byte, error) {
	if _, ok := kindNames[k]; !ok {
		return nil, fmt.Errorf("fault: cannot encode unknown kind %d", int(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText decodes a kind from its String() name.
func (k *Kind) UnmarshalText(text []byte) error {
	got, err := KindFromString(string(text))
	if err != nil {
		return err
	}
	*k = got
	return nil
}

// eventJSON is the wire form of Event.
type eventJSON struct {
	At      string            `json:"at"`
	Kind    Kind              `json:"kind"`
	Node    simnet.NodeID     `json:"node,omitempty"`
	Groups  [][]simnet.NodeID `json:"groups,omitempty"`
	From    simnet.NodeID     `json:"from,omitempty"`
	To      simnet.NodeID     `json:"to,omitempty"`
	Latency string            `json:"latency,omitempty"`
	Loss    float64           `json:"loss,omitempty"`
	Detail  string            `json:"detail,omitempty"`
}

// MarshalJSON encodes the event with duration strings and kind names.
func (e Event) MarshalJSON() ([]byte, error) {
	ej := eventJSON{
		At:     e.At.String(),
		Kind:   e.Kind,
		Node:   e.Node,
		Groups: e.Groups,
		From:   e.From,
		To:     e.To,
		Loss:   e.Loss,
		Detail: e.Detail,
	}
	if e.Latency != 0 {
		ej.Latency = e.Latency.String()
	}
	return json.Marshal(ej)
}

// UnmarshalJSON decodes an event produced by MarshalJSON. It rejects
// a negative at or latency and a loss outside [0, 1], naming the field:
// the worlds would apply them silently (a negative latency delivers
// at once).
func (e *Event) UnmarshalJSON(data []byte) error {
	var ej eventJSON
	if err := json.Unmarshal(data, &ej); err != nil {
		return err
	}
	at, err := time.ParseDuration(ej.At)
	if err != nil {
		return fmt.Errorf("fault: event at: %w", err)
	}
	if at < 0 {
		return fmt.Errorf("fault: event at %s is negative", ej.At)
	}
	var latency time.Duration
	if ej.Latency != "" {
		if latency, err = time.ParseDuration(ej.Latency); err != nil {
			return fmt.Errorf("fault: event latency: %w", err)
		}
		if latency < 0 {
			return fmt.Errorf("fault: event latency %s is negative", ej.Latency)
		}
	}
	if !(ej.Loss >= 0 && ej.Loss <= 1) {
		return fmt.Errorf("fault: event loss %v is outside [0, 1]", ej.Loss)
	}
	*e = Event{
		At:      at,
		Kind:    ej.Kind,
		Node:    ej.Node,
		Groups:  ej.Groups,
		From:    ej.From,
		To:      ej.To,
		Latency: latency,
		Loss:    ej.Loss,
		Detail:  ej.Detail,
	}
	return nil
}

// MarshalJSON encodes the schedule as an array of events in insertion
// order.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	if s.events == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(s.events)
}

// UnmarshalJSON decodes a schedule produced by MarshalJSON, replacing
// any existing events.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var events []Event
	if err := json.Unmarshal(data, &events); err != nil {
		return err
	}
	s.events = events
	return nil
}

// String renders the schedule one event per line, sorted by time — the
// human-readable counterpart of the JSON encoding, used by riotchaos to
// print minimized counterexamples.
func (s *Schedule) String() string {
	var b strings.Builder
	for _, ev := range s.Events() {
		fmt.Fprintf(&b, "%10s  %-15s", ev.At.Round(time.Millisecond), ev.Kind)
		switch {
		case ev.Kind == KindPartitionStart:
			for gi, g := range ev.Groups {
				if gi > 0 {
					b.WriteString(" |")
				}
				for _, n := range g {
					b.WriteString(" " + string(n))
				}
			}
		case ev.From != "" || ev.To != "":
			fmt.Fprintf(&b, " %s↔%s", ev.From, ev.To)
			if ev.Kind == KindLinkDegrade {
				fmt.Fprintf(&b, " latency=%s loss=%.2f", ev.Latency, ev.Loss)
			}
		case ev.Node != "":
			b.WriteString(" " + string(ev.Node))
			if ev.Detail != "" {
				b.WriteString(" " + ev.Detail)
			}
		case ev.Detail != "":
			b.WriteString(" " + ev.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
