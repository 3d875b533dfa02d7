// Package crdt implements the conflict-free replicated data type the
// data plane runs on: a last-writer-wins map, with the per-peer delta
// buffer (delta.go) and encoded-size accounting (size.go) its sync
// protocol needs. The paper's data-flow vision (§VI) requires data to be
// "kept synchronized or transferred" between IoT software components
// across unreliable links and partitions without central storage; a
// state-based CRDT provides exactly that — replicas merge pairwise in
// any order, any grouping, any number of times, and converge (the
// property-based tests check commutativity and convergence explicitly).
package crdt

import (
	"slices"
	"sort"
	"strings"
	"time"
)

// ReplicaID identifies one replica of a CRDT.
type ReplicaID string

// LWWMap is a last-writer-wins key/value map — the workhorse of the
// data plane: each key is a last-writer-wins register (a write carries
// a timestamp and the writing replica's ID; the larger timestamp wins,
// ties broken by replica ID so all replicas resolve identically), and
// replicas converge by exchanging either full state or deltas (entries
// newer than a known timestamp). Deletes are tombstoned writes so they
// propagate.
type LWWMap struct {
	replica ReplicaID
	entries map[string]mapEntry
	maxTs   time.Duration // newest write time; exact, since entries never regress
}

// mapEntry is one key's LWW state.
type mapEntry struct {
	Value   any
	Ts      time.Duration
	Replica ReplicaID
	Deleted bool
}

// wins reports whether (ts, r) supersedes the entry.
func (e mapEntry) wins(ts time.Duration, r ReplicaID) bool {
	if ts != e.Ts {
		return ts > e.Ts
	}
	return r > e.Replica
}

// Entry is an exported snapshot of one key's state, used for deltas.
type Entry struct {
	Key     string
	Value   any
	Ts      time.Duration
	Replica ReplicaID
	Deleted bool
}

// NewLWWMap returns an empty map owned by replica r.
func NewLWWMap(r ReplicaID) *LWWMap {
	return &LWWMap{replica: r, entries: make(map[string]mapEntry)}
}

// Set writes key=value at timestamp ts on behalf of the local replica.
// It reports whether the write won against the current state.
func (m *LWWMap) Set(key string, value any, ts time.Duration) bool {
	return m.apply(Entry{Key: key, Value: value, Ts: ts, Replica: m.replica})
}

// apply merges one entry (local or remote) into the map.
func (m *LWWMap) apply(e Entry) bool {
	cur, ok := m.entries[e.Key]
	if ok && !cur.wins(e.Ts, e.Replica) {
		return false
	}
	m.entries[e.Key] = mapEntry{Value: e.Value, Ts: e.Ts, Replica: e.Replica, Deleted: e.Deleted}
	if e.Ts > m.maxTs {
		m.maxTs = e.Ts
	}
	return true
}

// Wins reports whether applying e would supersede the key's current
// state, without mutating the map — the read-only pre-check for apply.
func (m *LWWMap) Wins(e Entry) bool {
	cur, ok := m.entries[e.Key]
	return !ok || cur.wins(e.Ts, e.Replica)
}

// Get returns the live value for key.
func (m *LWWMap) Get(key string) (any, bool) {
	e, ok := m.entries[key]
	if !ok || e.Deleted {
		return nil, false
	}
	return e.Value, true
}

// Keys returns the live keys, sorted.
func (m *LWWMap) Keys() []string {
	var out []string
	for k, e := range m.entries {
		if !e.Deleted {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// State exports every entry (including tombstones), sorted by key, for
// full-state synchronization.
func (m *LWWMap) State() []Entry {
	out := make([]Entry, 0, len(m.entries))
	for k, e := range m.entries {
		out = append(out, Entry{Key: k, Value: e.Value, Ts: e.Ts, Replica: e.Replica, Deleted: e.Deleted})
	}
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Entry exports one key's state (including tombstones) as a delta
// entry, for callers that track their own change sets.
func (m *LWWMap) Entry(key string) (Entry, bool) {
	e, ok := m.entries[key]
	if !ok {
		return Entry{}, false
	}
	return Entry{Key: key, Value: e.Value, Ts: e.Ts, Replica: e.Replica, Deleted: e.Deleted}, true
}

// Since exports entries with a write time strictly after ts — a delta
// for incremental anti-entropy.
func (m *LWWMap) Since(ts time.Duration) []Entry {
	out := make([]Entry, 0, len(m.entries))
	for k, e := range m.entries {
		if e.Ts > ts {
			out = append(out, Entry{Key: k, Value: e.Value, Ts: e.Ts, Replica: e.Replica, Deleted: e.Deleted})
		}
	}
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Apply merges a batch of exported entries (full state or delta) and
// returns how many of them won.
func (m *LWWMap) Apply(entries []Entry) int {
	won := 0
	for _, e := range entries {
		if m.apply(e) {
			won++
		}
	}
	return won
}

// MaxTimestamp returns the newest write time in the map. It is O(1):
// the map tracks the maximum incrementally (winning writes only ever
// advance it), so callers can use it as a cheap has-anything-changed
// probe before exporting a delta.
func (m *LWWMap) MaxTimestamp() time.Duration { return m.maxTs }
