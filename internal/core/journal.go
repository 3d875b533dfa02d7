package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// RunEvent is one entry of a system run's journal: faults as they are
// injected, controller placements as they change, requirement
// violations and recoveries as ground truth crosses the band, privacy
// violations as the auditor sees them, and models@runtime alerts.
type RunEvent struct {
	At     time.Duration
	Kind   string
	Detail string
}

// Journal event kinds.
const (
	EventFault     = "fault"
	EventPlacement = "placement"
	EventViolation = "violation"
	EventRecovery  = "recovery"
	EventPrivacy   = "privacy"
	EventAlert     = "models@runtime"
	// EventIsland marks island-mode transitions (enter/rejoin). Only
	// emitted under the hardened profile (ScenarioConfig.Hardened), so
	// default journals never contain it.
	EventIsland = "island"
	// EventSync summarizes the run's replication traffic (frames,
	// entries, bytes, acks over all store links). Emitted once at the
	// horizon, only for architectures with replicated stores — the
	// totals derive from the deterministic delivery sequence, so the
	// entry is shard-count-invariant like every other journal line.
	EventSync = "sync"
)

// record appends one journal entry at the current virtual time.
func (sys *System) record(kind, format string, args ...any) {
	sys.recordAt(nil, kind, 0, 0, format, args...)
}

// recordSpan is record with causal span IDs, from coordinator context
// (environment/measurement loops, fault subscribers).
func (sys *System) recordSpan(kind string, span, parent uint64, format string, args ...any) {
	sys.recordAt(nil, kind, span, parent, format, args...)
}

// recordOn appends one journal entry from a node's event (a shard-side
// call site). The entry is stamped with the node's lane clock and, in
// sharded mode, buffered per lane under the executing event's logical
// key so the post-run merge restores the global order.
func (sys *System) recordOn(ep simnet.Port, kind, format string, args ...any) {
	sys.recordAt(ep, kind, 0, 0, format, args...)
}

// laneEvent is a journal record tagged with the logical key of the
// event that emitted it, buffered per lane in sharded mode.
type laneEvent struct {
	seq uint64
	ev  RunEvent
}

// recordAt appends one journal entry and mirrors it onto the
// observability bus as a "core.<kind>" event carrying the given causal
// span IDs. The journal is written directly — not via a bus
// subscription — so it stays an always-on view while the bus keeps its
// zero-subscriber fast path. In sharded mode the entry goes to the
// executing lane's buffer (see mergeJournal); at Shards = 0 straight
// to the journal, byte-identically to the pre-sharding code.
func (sys *System) recordAt(ep simnet.Port, kind string, span, parent uint64, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	at := sys.world.Now()
	if ep != nil {
		at = ep.Now()
	}
	// Lane buffers exist only until mergeJournal (and only in sharded
	// simulation, where every ep is a simulator endpoint); anything
	// recorded after the merge (e.g. the horizon sync summary) goes
	// straight to the journal even if the scheduler still reports a
	// lane context.
	buffered := false
	if sys.laneJournals != nil {
		sep, _ := ep.(*simnet.Endpoint)
		if lane, seq, ok := sys.sim.ExecContext(sep); ok {
			sys.laneJournals[lane] = append(sys.laneJournals[lane], laneEvent{
				seq: seq,
				ev:  RunEvent{At: at, Kind: kind, Detail: detail},
			})
			buffered = true
		}
	}
	if !buffered {
		sys.journal = append(sys.journal, RunEvent{At: at, Kind: kind, Detail: detail})
	}
	sys.bus.Publish(obs.Event{
		At: at, Kind: "core." + kind,
		Span: span, Parent: parent, Detail: detail,
	})
}

// mergeJournal flattens the per-lane buffers into the journal in
// global (At, seq) order. The logical keys are shard-count-invariant,
// and records sharing a key (several records from one event) keep
// their append order via the stable sort — so the merged journal, and
// therefore JournalHash, is byte-identical at any shard count.
func (sys *System) mergeJournal() {
	if sys.laneJournals == nil {
		return
	}
	total := 0
	for _, lj := range sys.laneJournals {
		total += len(lj)
	}
	all := make([]laneEvent, 0, total)
	for _, lj := range sys.laneJournals {
		all = append(all, lj...)
	}
	slices.SortStableFunc(all, func(a, b laneEvent) int {
		if c := cmp.Compare(a.ev.At, b.ev.At); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	merged := make([]RunEvent, 0, len(sys.journal)+len(all))
	merged = append(merged, sys.journal...)
	for i := range all {
		merged = append(merged, all[i].ev)
	}
	sys.journal = merged
	sys.laneJournals = nil
}

// Journal returns the run's events in chronological order. Call after
// Run.
func (sys *System) Journal() []RunEvent {
	out := make([]RunEvent, len(sys.journal))
	copy(out, sys.journal)
	return out
}

// FormatJournal renders events as one line each.
func FormatJournal(events []RunEvent) string {
	var b strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&b, "%8s  %-14s %s\n", ev.At.Round(time.Millisecond), ev.Kind, ev.Detail)
	}
	return b.String()
}

// JournalHash digests a journal as the hex SHA-256 of its formatted
// rendering. Two runs of the same scenario at the same seed must
// produce the same hash — this is the equality the parallel experiment
// engine (and the CI determinism job) checks between serial and
// concurrent executions.
func JournalHash(events []RunEvent) string {
	// Stream the formatted lines into the hasher instead of
	// materializing FormatJournal's string: the digested bytes are
	// identical, without the run-sized intermediate buffers.
	h := sha256.New()
	for _, ev := range events {
		fmt.Fprintf(h, "%8s  %-14s %s\n", ev.At.Round(time.Millisecond), ev.Kind, ev.Detail)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// JournalHash digests this run's journal. Call after Run.
func (sys *System) JournalHash() string {
	return JournalHash(sys.journal)
}
