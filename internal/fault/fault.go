// Package fault injects disruption into a simulated or live IoT system. The
// paper defines disruption as "an adverse change to system stability"
// originating outside the system (environment) or inside it (faults),
// and enumerates the classes this package implements: internal faults
// (crashes), non-persistent connectivity (partitions, link degradation),
// transfer of administrative domains, and software configuration change
// (§I, §II). Faults are scripted as a Schedule — by hand for
// head-to-head archetype comparisons, or drawn at random by
// chaos.Generator for failure-injection search — and one Injector
// applies a schedule to a simulated or live world.
package fault

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/simnet"
)

// Kind classifies a disruption event.
type Kind int

// Disruption classes from the paper.
const (
	// KindCrash takes a node down (internal fault).
	KindCrash Kind = iota + 1
	// KindRecover brings a crashed node back up.
	KindRecover
	// KindPartitionStart splits the network into groups.
	KindPartitionStart
	// KindPartitionEnd heals all partitions.
	KindPartitionEnd
	// KindLinkDegrade raises latency/loss on a link (e.g. a congested
	// or flaky WAN uplink).
	KindLinkDegrade
	// KindLinkRestore removes a link override.
	KindLinkRestore
	// KindDomainTransfer hands a device to another administrative
	// domain; consumed by subscribers (the spatial model is not a
	// network concern).
	KindDomainTransfer
	// KindStackUpgrade is a vendor software-configuration change;
	// consumed by subscribers.
	KindStackUpgrade
	// KindBatteryDrain forces a device's battery to empty; consumed by
	// subscribers that own the device model.
	KindBatteryDrain
)

var kindNames = map[Kind]string{
	KindCrash:          "crash",
	KindRecover:        "recover",
	KindPartitionStart: "partition-start",
	KindPartitionEnd:   "partition-end",
	KindLinkDegrade:    "link-degrade",
	KindLinkRestore:    "link-restore",
	KindDomainTransfer: "domain-transfer",
	KindStackUpgrade:   "stack-upgrade",
	KindBatteryDrain:   "battery-drain",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled disruption.
type Event struct {
	At   time.Duration
	Kind Kind
	// Node is the target for crash/recover/transfer/upgrade/drain.
	Node simnet.NodeID
	// Groups holds the partition groups for KindPartitionStart.
	Groups [][]simnet.NodeID
	// From/To name the link for link events.
	From, To simnet.NodeID
	// Latency/Loss are the degraded link parameters.
	Latency time.Duration
	Loss    float64
	// Detail carries kind-specific payload, e.g. the destination domain
	// of a transfer.
	Detail string
}

// Schedule is an ordered list of disruptions. The zero value is an empty
// schedule ready to use.
type Schedule struct {
	events []Event
}

// Add appends an arbitrary event.
func (s *Schedule) Add(ev Event) *Schedule {
	s.events = append(s.events, ev)
	return s
}

// Grow makes room for n more events, so a builder that knows how many
// it will add (two link events per device at metropolis scale) does
// not regrow and recopy the schedule on the way there.
func (s *Schedule) Grow(n int) *Schedule {
	s.events = slices.Grow(s.events, n)
	return s
}

// Crash takes node down at t and, if downFor > 0, recovers it after
// downFor.
func (s *Schedule) Crash(t time.Duration, node simnet.NodeID, downFor time.Duration) *Schedule {
	s.Add(Event{At: t, Kind: KindCrash, Node: node})
	if downFor > 0 {
		s.Add(Event{At: t + downFor, Kind: KindRecover, Node: node})
	}
	return s
}

// Partition splits the network into groups at t and heals after dur (if
// dur > 0).
func (s *Schedule) Partition(t, dur time.Duration, groups ...[]simnet.NodeID) *Schedule {
	s.Add(Event{At: t, Kind: KindPartitionStart, Groups: groups})
	if dur > 0 {
		s.Add(Event{At: t + dur, Kind: KindPartitionEnd})
	}
	return s
}

// DegradeLink raises latency/loss on both directions of a↔b at t and
// restores after dur (if dur > 0).
func (s *Schedule) DegradeLink(t, dur time.Duration, a, b simnet.NodeID, latency time.Duration, loss float64) *Schedule {
	s.Add(Event{At: t, Kind: KindLinkDegrade, From: a, To: b, Latency: latency, Loss: loss})
	if dur > 0 {
		s.Add(Event{At: t + dur, Kind: KindLinkRestore, From: a, To: b})
	}
	return s
}

// CutLink is DegradeLink with 100% loss: the link carries nothing.
func (s *Schedule) CutLink(t, dur time.Duration, a, b simnet.NodeID) *Schedule {
	return s.DegradeLink(t, dur, a, b, time.Millisecond, 1.0)
}

// TransferDomain hands node to the named domain at t.
func (s *Schedule) TransferDomain(t time.Duration, node simnet.NodeID, domain string) *Schedule {
	return s.Add(Event{At: t, Kind: KindDomainTransfer, Node: node, Detail: domain})
}

// UpgradeStack schedules a software-configuration change on node at t.
func (s *Schedule) UpgradeStack(t time.Duration, node simnet.NodeID) *Schedule {
	return s.Add(Event{At: t, Kind: KindStackUpgrade, Node: node})
}

// DrainBattery schedules battery exhaustion of node at t.
func (s *Schedule) DrainBattery(t time.Duration, node simnet.NodeID) *Schedule {
	return s.Add(Event{At: t, Kind: KindBatteryDrain, Node: node})
}

// Events returns a copy of the schedule sorted by time; events at the
// same time keep the order they were added in. It stable-sorts a
// permutation of 4-byte indices, not the events, and then copies each
// event once into its place.
func (s *Schedule) Events() []Event {
	perm := make([]int32, len(s.events))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		return cmp.Compare(s.events[a].At, s.events[b].At)
	})
	out := make([]Event, len(s.events))
	for i, j := range perm {
		out[i] = s.events[j]
	}
	return out
}

// Len returns the number of scheduled events.
func (s *Schedule) Len() int { return len(s.events) }

// Subscriber receives every injected event at its injection time.
// Network-level events (crash, recover, partition, link) are applied to
// the world by the Injector itself; model-level events (domain
// transfer, stack upgrade, battery drain) only reach subscribers, which
// own the respective models.
type Subscriber func(Event)

// World is the network a schedule is injected into: a clock that runs
// callbacks at virtual times, and the fault surface those callbacks
// drive. *simnet.Sim and *realnet.Cluster both implement it, so a
// schedule means the same thing on the simulator and on sockets because
// one injector executes it.
type World interface {
	Now() time.Duration
	// At runs fn at virtual time t (clamped to now), serialized with
	// every other callback of the world.
	At(t time.Duration, fn func())
	HasNode(id simnet.NodeID) bool
	SetDown(id simnet.NodeID, down bool)
	Partition(groups ...[]simnet.NodeID)
	HealPartition()
	DegradeLink(a, b simnet.NodeID, latency time.Duration, loss float64)
	RestoreLink(a, b simnet.NodeID)
}

// Injector arms schedules on a world and records what it applied. It
// has no lock of its own: events fire inside World.At callbacks, and
// whoever reads Log or calls Inject while a schedule is armed must be
// serialized with them (trivially on the simulator; on a live cluster,
// by doing it in an At callback).
type Injector struct {
	w       World
	subs    []Subscriber
	log     []Event
	armed   int
	skipped int
}

// NewInjector creates an injector bound to w.
func NewInjector(w World) *Injector {
	return &Injector{w: w}
}

// Subscribe registers a subscriber for all injected events.
func (in *Injector) Subscribe(fn Subscriber) {
	in.subs = append(in.subs, fn)
}

// Arm schedules every event of the schedule on the world's clock, in
// time order. The sorted copy Events makes is the only one: each timer
// points into it instead of closing over its own Event, and the log is
// sized for it. Arming in time order means the world's queue receives
// each far-future event as its largest so far, which the simulator's
// spill heap files without moving another entry.
func (in *Injector) Arm(s *Schedule) {
	events := s.Events()
	in.log = slices.Grow(in.log, len(events))
	for i := range events {
		ev := &events[i]
		if (ev.Kind == KindCrash || ev.Kind == KindRecover) && !in.w.HasNode(ev.Node) {
			in.skipped++
		}
		in.w.At(ev.At, func() { in.apply(*ev) })
	}
	in.armed += len(events)
}

// Armed returns how many events Arm has scheduled so far.
func (in *Injector) Armed() int { return in.armed }

// Skipped returns how many of the armed events are a crash or recovery
// of a node the world does not have. They still fire, are logged and
// reach subscribers, but take nothing down: on a schedule drawn from
// the world's own topology the count is zero.
func (in *Injector) Skipped() int { return in.skipped }

// Inject applies one event immediately.
func (in *Injector) Inject(ev Event) {
	ev.At = in.w.Now()
	in.apply(ev)
}

func (in *Injector) apply(ev Event) {
	switch ev.Kind {
	case KindCrash:
		in.w.SetDown(ev.Node, true)
	case KindRecover:
		in.w.SetDown(ev.Node, false)
	case KindPartitionStart:
		in.w.Partition(ev.Groups...)
	case KindPartitionEnd:
		in.w.HealPartition()
	case KindLinkDegrade:
		in.w.DegradeLink(ev.From, ev.To, ev.Latency, ev.Loss)
	case KindLinkRestore:
		in.w.RestoreLink(ev.From, ev.To)
	case KindDomainTransfer, KindStackUpgrade, KindBatteryDrain:
		// Model-level: subscribers own these.
	}
	in.log = append(in.log, ev)
	for _, fn := range in.subs {
		fn(ev)
	}
}

// Log returns a copy of all applied events in application order.
func (in *Injector) Log() []Event {
	out := make([]Event, len(in.log))
	copy(out, in.log)
	return out
}
