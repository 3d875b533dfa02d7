// Package obs is the unified observability layer: a structured event
// bus with causal spans, Prometheus-style metric exposition, and a
// Chrome trace-event exporter. The paper defines resilience as "the
// persistence of reliable requirements satisfaction when facing
// change"; that persistence is only credible evidence if every
// reported recovery can be traced to its cause (fault injected →
// detector fired → MAPE planned → actuator executed). This package is
// the substrate that makes the causal chain visible, in simulation and
// on real networks alike.
//
// Design constraints, in order:
//
//  1. Zero dependencies beyond the standard library, so every protocol
//     package can publish without import cycles or new requirements.
//  2. Near-free when nobody listens: Publish and Emit check an atomic
//     subscriber count and return before any allocation or formatting.
//     Instrumentation stays compiled into hot paths permanently.
//  3. Virtual-time aware: a Bus reads time from an injected Clock, so
//     the same instrumented code reports simulated time under simnet
//     and wall-clock time under realnet.
//  4. Concurrency-safe: simnet runs single-threaded, but realnet hosts
//     publish from an event-loop goroutine while HTTP scrapers and
//     tests read concurrently.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock reads the current time as an offset from an epoch (simulation
// start or process start). It must be safe for concurrent use when the
// bus is shared across goroutines.
type Clock func() time.Duration

// Event is one structured observation on the bus. Events with Dur > 0
// describe a completed span [At, At+Dur); events with Dur == 0 are
// instants. Span and Parent carry the causal chain: an event with
// Parent set was caused by the event (or span) carrying that ID.
type Event struct {
	At     time.Duration // start time (virtual or wall, per the bus clock)
	Dur    time.Duration // span duration; 0 for instant events
	Kind   string        // dotted taxonomy, e.g. "gossip.suspect", "mape.cycle"
	Node   string        // originating node; "" for system-level events
	Span   uint64        // this event's span ID; 0 if none
	Parent uint64        // causal parent span ID; 0 if root
	Detail string        // human-readable specifics
}

// Bus is a typed event bus. The zero value is not usable; construct
// with NewBus. A nil *Bus is safe to publish to (every method no-ops),
// so instrumented packages need no nil checks of their own.
type Bus struct {
	clock    Clock
	nextSpan atomic.Uint64
	// active counts live subscriptions; the Publish/Emit fast path is
	// a single atomic load of this counter.
	active atomic.Int32

	mu   sync.RWMutex
	subs []*Subscription
}

// NewBus constructs a bus reading time from clock. A nil clock falls
// back to wall-clock time since construction.
func NewBus(clock Clock) *Bus {
	b := &Bus{}
	if clock == nil {
		start := time.Now()
		clock = func() time.Duration { return time.Since(start) }
	}
	b.clock = clock
	return b
}

// Now returns the bus's current time (0 on a nil bus).
func (b *Bus) Now() time.Duration {
	if b == nil {
		return 0
	}
	return b.clock()
}

// Active reports whether at least one subscriber is attached. Callers
// with expensive event construction (formatting, extra bookkeeping)
// should gate it on Active; Publish and Emit perform the same check
// internally.
func (b *Bus) Active() bool {
	return b != nil && b.active.Load() > 0
}

// NewSpanID allocates a fresh span identifier. IDs are allocated even
// while no subscriber listens so that causal chains stay consistent
// across subscribe/unsubscribe boundaries; the cost is one atomic add.
func (b *Bus) NewSpanID() uint64 {
	if b == nil {
		return 0
	}
	return b.nextSpan.Add(1)
}

// Publish delivers ev to every subscriber. With no subscribers it is a
// single atomic load. Events with a zero At are stamped with the bus
// clock.
func (b *Bus) Publish(ev Event) {
	if b == nil || b.active.Load() == 0 {
		return
	}
	if ev.At == 0 {
		ev.At = b.clock()
	}
	b.mu.RLock()
	for _, s := range b.subs {
		s.deliver(ev)
	}
	b.mu.RUnlock()
}

// Emit publishes an instant event, formatting the detail lazily: with
// no subscribers it returns before fmt.Sprintf runs.
func (b *Bus) Emit(kind, node string, span, parent uint64, format string, args ...any) {
	if b == nil || b.active.Load() == 0 {
		return
	}
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	b.Publish(Event{Kind: kind, Node: node, Span: span, Parent: parent, Detail: detail})
}

// Span is an in-flight causal span. The zero Span (returned when no
// subscriber listens) is inert: End on it does nothing.
type Span struct {
	ID     uint64
	Parent uint64
	Kind   string
	Node   string
	start  time.Duration
	bus    *Bus
}

// StartSpan opens a span. When the bus has no subscribers it returns
// the zero Span, so span-based instrumentation costs one atomic load
// on the idle path.
func (b *Bus) StartSpan(kind, node string, parent uint64) Span {
	if b == nil || b.active.Load() == 0 {
		return Span{}
	}
	return Span{
		ID:     b.nextSpan.Add(1),
		Parent: parent,
		Kind:   kind,
		Node:   node,
		start:  b.clock(),
		bus:    b,
	}
}

// End closes the span, publishing it as one event covering [start,
// now). The detail is formatted lazily.
func (s Span) End(format string, args ...any) {
	if s.bus == nil {
		return
	}
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	end := s.bus.clock()
	s.bus.Publish(Event{
		At:     s.start,
		Dur:    end - s.start,
		Kind:   s.Kind,
		Node:   s.Node,
		Span:   s.ID,
		Parent: s.Parent,
		Detail: detail,
	})
}

// Subscription is one attached consumer: either a ring buffer drained
// with Events, or a callback installed by SubscribeFunc.
type Subscription struct {
	bus *Bus
	fn  func(Event) // callback mode; nil in ring mode

	mu      sync.Mutex
	buf     []Event // ring storage (ring mode)
	next    int     // write cursor
	full    bool
	dropped uint64
	closed  bool
}

// DefaultRingSize is the ring capacity used when Subscribe is called
// with a non-positive size.
const DefaultRingSize = 1024

// Subscribe attaches a ring-buffered subscriber keeping the newest n
// events (older ones are overwritten and counted as dropped). Use for
// bounded "recent events" views that tolerate loss.
func (b *Bus) Subscribe(n int) *Subscription {
	if n <= 0 {
		n = DefaultRingSize
	}
	s := &Subscription{bus: b, buf: make([]Event, n)}
	b.attach(s)
	return s
}

// SubscribeFunc attaches a callback invoked synchronously for every
// published event. The callback must be fast, must tolerate concurrent
// invocation when the bus is shared across goroutines, and must not
// subscribe or close subscriptions (the bus lock is held).
func (b *Bus) SubscribeFunc(fn func(Event)) *Subscription {
	s := &Subscription{bus: b, fn: fn}
	b.attach(s)
	return s
}

func (b *Bus) attach(s *Subscription) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	b.active.Add(1)
}

// Close detaches the subscription. Ring contents remain drainable
// after Close; further published events are not delivered.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	b := s.bus
	if b == nil {
		return
	}
	b.mu.Lock()
	for i, sub := range b.subs {
		if sub == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
	b.active.Add(-1)
}

func (s *Subscription) deliver(ev Event) {
	if s.fn != nil {
		s.fn(ev)
		return
	}
	s.mu.Lock()
	if s.full {
		s.dropped++
	}
	s.buf[s.next] = ev
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
	s.mu.Unlock()
}

// Events drains the ring, returning buffered events oldest-first and
// resetting it. Callback subscriptions return nil.
func (s *Subscription) Events() []Event {
	if s.fn != nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Event
	if s.full {
		out = make([]Event, 0, len(s.buf))
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
	} else {
		out = append(out, s.buf[:s.next]...)
	}
	s.next = 0
	s.full = false
	return out
}

// Dropped returns how many events were overwritten before being
// drained.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
