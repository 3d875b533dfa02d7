// Package simnet provides a deterministic discrete-event network simulator.
//
// All higher-level substrates (gossip membership, consensus, MAPE loops,
// data-flow sessions) run as event-driven state machines on a single
// virtual clock. Determinism comes from a seeded random source and a
// strictly ordered event queue: two runs with the same seed and the same
// scenario produce identical traces.
//
// The simulator models nodes connected by links with configurable latency
// and loss, supports network partitions, and exposes per-node endpoints
// whose timers are automatically silenced while the node is down. This is
// the substitute for the heterogeneous physical IoT infrastructure of the
// paper: disruptions (crashes, partitions, latency spikes) are injected
// reproducibly instead of occurring in the wild.
//
// There is one event engine: the lane (this file). A lane owns a
// clock, a hierarchical timing wheel (wheel.go) that pops events in
// (at, seq) order, and the arenas its events and timers live in. A Sim
// built without WithShards is a single lane — every node and every
// sim-level timer runs on it, all draws come from the one seeded
// stream and seq is one global counter. WithShards(n) adds n shard
// lanes that advance in parallel lookahead windows (shard.go), with
// per-node streams and per-node keys so the result does not depend on
// n. The two are different journal families; the code is the same.
//
// The engine is built for throughput: events are allocated from a
// per-lane arena and recycled after firing, and the highest-volume
// event kinds — message deliveries and periodic ticks — are encoded as
// struct fields instead of closures so that steady-state simulation
// does not allocate per event. An event holds only what every kind
// needs; a delivery's payload (sender, protocol, message, envelope)
// lives in a second per-lane arena and the event holds its slot, so
// the timers and tickers that fill the queue stay small. A generation
// counter on each event keeps recycled storage safe against stale
// Timer handles.
package simnet

import (
	"fmt"
	"math/rand"
	"time"
)

// Clock is the read/schedule surface of the simulator that protocol code
// is written against. Production code must never call time.Now; it asks
// its Clock instead so that simulation time is the only time.
type Clock interface {
	// Now returns the current virtual time, measured from the start of
	// the simulation.
	Now() time.Duration
	// After schedules fn to run once, d from now. It returns a Timer
	// that may be stopped before it fires.
	After(d time.Duration, fn func()) *Timer
	// Rand returns the simulation's deterministic random source.
	Rand() *rand.Rand
}

// event is a scheduled entry in a lane's queue: a plain callback (fn
// or argFn, skipped while owner is down), a message delivery (dlv:
// owner is the destination and arg the payload's slot in the lane's
// delivery arena, executed without any closure) or a periodic ticker
// (tick, which re-arms its own event). The ordering key lives in the
// queue's heapEntry, not here. Events are pooled: gen increments on
// every recycle so stale Timer handles cannot cancel the storage's
// next occupant.
type event struct {
	gen  uint32 // incremented on recycle; guards pooled reuse
	dead bool
	dlv  bool

	// argFn carries its uint64 argument inline in arg, so a caller
	// that binds argFn once (a method value) schedules per-occurrence
	// timers without allocating a capturing closure.
	fn    func()
	argFn func(uint64)
	arg   uint64
	owner *node
	tick  *Ticker
}

// delivery is a message in flight: msg from `from`, or — when env.Kind
// is nonzero — the inline envelope instead of the boxed msg, the
// allocation-free fast path (see env.go). proto is non-empty for
// multiplexed protocol traffic.
type delivery struct {
	from  NodeID
	proto string
	msg   Message
	env   Envelope
}

// timerChunk is the number of Timers newTimer allocates at once when
// its chunk runs dry. Chunked allocation keeps the handles close
// together in memory and divides the allocator traffic by the chunk
// size.
const timerChunk = 64

// Arena storage is paged: slots live in fixed-size pages and are
// addressed by a uint32 index (page number in the high bits, offset in
// the low). The queue stores an event's index instead of a pointer,
// which keeps heapEntry pointer-free — sift operations then move plain
// integers and never trip the GC write barrier. Pages are never
// reallocated, so *event pointers held by Timer/Ticker handles and the
// *Envelope an EnvelopeHandler reads stay valid. Indices are per lane.
const (
	eventPageShift = 9 // 512 slots per page
	eventPageSize  = 1 << eventPageShift
	eventPageMask  = eventPageSize - 1
)

// arena is a paged slab of T with a stack of free indices.
type arena[T any] struct {
	pages [][]T
	free  []uint32
}

// at resolves an index to its slot.
func (a *arena[T]) at(idx uint32) *T {
	return &a.pages[idx>>eventPageShift][idx&eventPageMask]
}

// alloc takes an index from the free stack, appending a fresh page
// when the stack is empty.
func (a *arena[T]) alloc() (uint32, *T) {
	if len(a.free) == 0 {
		a.grow()
	}
	n := len(a.free) - 1
	idx := a.free[n]
	a.free = a.free[:n]
	return idx, a.at(idx)
}

// grow appends a page and pushes its indices, lowest on top.
func (a *arena[T]) grow() {
	base := uint32(len(a.pages)) << eventPageShift
	a.pages = append(a.pages, make([]T, eventPageSize))
	for i := eventPageSize - 1; i >= 0; i-- {
		a.free = append(a.free, base+uint32(i))
	}
}

// release zeroes a slot and pushes it on the free stack.
func (a *arena[T]) release(idx uint32) {
	var zero T
	*a.at(idx) = zero
	a.free = append(a.free, idx)
}

// Timer is a handle to a scheduled callback.
type Timer struct {
	ev       *event
	gen      uint32
	external func() bool
}

// NewExternalTimer wraps an external cancel function in a Timer so
// that alternative Port implementations (e.g. a real-network adapter)
// can satisfy the Port interface. stop must report whether it
// prevented the callback from firing.
func NewExternalTimer(stop func() bool) *Timer {
	return &Timer{external: stop}
}

// Stop cancels the timer if it has not fired yet. It reports whether the
// call prevented the timer from firing. Stop on a timer whose event has
// already fired (and whose storage may have been recycled for a newer
// event) is a safe no-op: the generation check tells the handle apart
// from the storage's current occupant.
func (t *Timer) Stop() bool {
	if t == nil {
		return false
	}
	if t.external != nil {
		return t.external()
	}
	if t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	t.ev.fn = nil
	t.ev.argFn = nil
	return true
}

// Sim is a deterministic discrete-event simulator. The zero value is not
// usable; construct with New.
type Sim struct {
	// seq keys sim-level timers and, with zero shard lanes, every event:
	// one global scheduling-order counter (see nextKey).
	seq     uint64
	rng     *rand.Rand
	seed    int64 // the WithSeed value; derives per-node streams when sharded
	nodes   map[NodeID]*node
	net     netState
	defLat  time.Duration
	defLoss float64
	defDup  float64
	shd     sharding // the lanes; see shard.go
}

// Option configures a Sim at construction time.
type Option func(*Sim)

// WithSeed sets the seed of the simulation's random source. The default
// seed is 1.
func WithSeed(seed int64) Option {
	return func(s *Sim) {
		s.seed = seed
		s.rng = rand.New(rand.NewSource(seed))
	}
}

// WithDefaultLatency sets the one-way delivery latency used for links that
// have no explicit override. The default is 5ms.
func WithDefaultLatency(d time.Duration) Option {
	return func(s *Sim) { s.defLat = d }
}

// WithDefaultLoss sets the message loss probability in [0,1] for links
// without an explicit override. The default is 0.
func WithDefaultLoss(p float64) Option {
	return func(s *Sim) { s.defLoss = p }
}

// WithDuplicateProb sets the probability in [0,1] that a delivered
// message is delivered a second time shortly after (datagram
// duplication). Protocols must be idempotent to survive it; the CRDT
// data plane is, by construction. The default is 0.
func WithDuplicateProb(p float64) Option {
	return func(s *Sim) { s.defDup = p }
}

// New constructs a simulator.
func New(opts ...Option) *Sim {
	s := &Sim{
		rng:    rand.New(rand.NewSource(1)),
		seed:   1,
		nodes:  make(map[NodeID]*node),
		defLat: 5 * time.Millisecond,
	}
	s.net.init()
	for _, opt := range opts {
		opt(s)
	}
	s.shd.init(s.shd.n) // zero unless WithShards
	return s
}

var _ Clock = (*Sim)(nil)

// Now returns the current virtual time: the coordinator lane's clock.
// Node code should prefer Endpoint.Now, which reads the node's own
// lane (the same lane when there are no shard lanes).
func (s *Sim) Now() time.Duration { return s.shd.coord.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// lane is one independently schedulable slice of the simulation: its
// own clock, timing wheel, event/delivery/timer arenas and traffic
// counters.
type lane struct {
	idx        int
	now        time.Duration
	wheel      *timerWheel
	events     arena[event]
	deliveries arena[delivery]
	timerArena []Timer
	stats      Stats
	// outbox buffers cross-lane transfers generated during a parallel
	// window; the barrier drains it into destination wheels.
	outbox []xfer
	// curSeq is the key of the event currently executing — the journal
	// context handed out by Sim.ExecContext.
	curSeq uint64
}

// eventAt resolves an arena index to its event.
func (l *lane) eventAt(idx uint32) *event { return l.events.at(idx) }

// recycle returns a fired or cancelled event, and a delivery's payload
// slot, to their free stacks, bumping the event's generation so
// outstanding Timer handles become inert.
func (l *lane) recycle(idx uint32, ev *event) {
	if ev.dlv {
		l.deliveries.release(uint32(ev.arg))
	}
	*ev = event{gen: ev.gen + 1}
	l.events.free = append(l.events.free, idx)
}

// queueDelivery queues a delivery to dst at key (at, seq) and returns
// its zeroed payload slot for the caller to fill.
func (l *lane) queueDelivery(at time.Duration, seq uint64, dst *node) *delivery {
	slot, d := l.deliveries.alloc()
	idx, ev := l.events.alloc()
	l.wheel.push(at, seq, idx)
	ev.dlv = true
	ev.owner = dst
	ev.arg = uint64(slot)
	return d
}

// newTimer hands out a Timer for ev from a chunked arena: timers are
// caller-owned and never recycled, but allocating them 64 at a time
// turns per-schedule allocator traffic into a rounding error.
func (l *lane) newTimer(ev *event) *Timer {
	if len(l.timerArena) == 0 {
		l.timerArena = make([]Timer, timerChunk)
	}
	t := &l.timerArena[0]
	l.timerArena = l.timerArena[1:]
	t.ev = ev
	t.gen = ev.gen
	return t
}

// peekLive returns the lane's next live entry, recycling cancelled
// entries it skips over.
func (l *lane) peekLive() (heapEntry, bool) {
	for {
		entry, ok := l.wheel.peek()
		if !ok {
			return heapEntry{}, false
		}
		if ev := l.eventAt(entry.idx); ev.dead {
			l.wheel.pop()
			l.recycle(entry.idx, ev)
			continue
		}
		return entry, true
	}
}

// pending counts the lane's live entries.
func (l *lane) pending(scratch []heapEntry) (int, []heapEntry) {
	scratch = l.wheel.entries(scratch[:0])
	n := 0
	for _, entry := range scratch {
		if !l.eventAt(entry.idx).dead {
			n++
		}
	}
	return n, scratch
}

// nextKey returns the seq half of the (at, seq) key for the next event
// n schedules (nil: a sim-level timer). Sim-level timers count on
// Sim.seq. With zero shard lanes so does every node: the key is global
// scheduling order, which is the pinned unsharded journal family. With
// shard lanes a node packs its rank over its own counter, so the key
// depends only on that node's history and is the same at any lane
// count (see shard.go).
func (s *Sim) nextKey(n *node) uint64 {
	if n == nil || s.shd.n == 0 {
		s.seq++
		return s.seq
	}
	n.ctr++
	return uint64(n.rank)<<ctrBits | n.ctr
}

// scheduleOn allocates and queues an event at absolute time t (clamped
// to now) on n's lane — the coordinator lane when n is nil — under the
// scheduler's next key. The caller fills in the payload.
func (s *Sim) scheduleOn(n *node, t time.Duration) (*event, *lane) {
	var ln *lane
	if n != nil {
		ln = n.ln
	} else {
		if s.shd.inPar {
			panic("simnet: coordinator scheduling from inside a shard window")
		}
		ln = s.shd.coord
	}
	if t < ln.now {
		t = ln.now
	}
	idx, ev := ln.events.alloc()
	ln.wheel.push(t, s.nextKey(n), idx)
	return ev, ln
}

// At schedules fn at absolute virtual time t. Scheduling in the past is an
// error in the caller; the event is clamped to now to keep the clock
// monotonic.
func (s *Sim) At(t time.Duration, fn func()) {
	ev, _ := s.scheduleOn(nil, t)
	ev.fn = fn
}

// After schedules fn to run d from now.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	ev, ln := s.scheduleOn(nil, s.Now()+d)
	ev.fn = fn
	return ln.newTimer(ev)
}

// laneExec pops and executes one event (the lane's current head).
func (s *Sim) laneExec(ln *lane, entry heapEntry) {
	ln.wheel.pop()
	ev := ln.eventAt(entry.idx)
	ln.now = entry.at
	ln.curSeq = entry.seq
	switch {
	case ev.dlv:
		// The payload is released only after the handler returns, so
		// the *Envelope it reads stays valid for the whole call.
		s.laneDeliver(ln, ev.owner, ln.deliveries.at(uint32(ev.arg)))
		ln.recycle(entry.idx, ev)
	case ev.tick != nil:
		s.laneTick(ln, entry.idx, ev)
	default:
		fn, argFn, arg, owner := ev.fn, ev.argFn, ev.arg, ev.owner
		ln.recycle(entry.idx, ev)
		if owner == nil || !owner.down {
			if fn != nil {
				fn()
			} else if argFn != nil {
				argFn(arg)
			}
		}
	}
}

// laneTick fires a ticker event on its lane and re-arms the same event
// storage under the owner's next key — a steady ticker never touches
// the allocator.
func (s *Sim) laneTick(ln *lane, idx uint32, ev *event) {
	t := ev.tick
	if t.stopped {
		ln.recycle(idx, ev)
		return
	}
	if !t.owner.down {
		t.fn()
	}
	if t.stopped { // fn stopped its own ticker
		ln.recycle(idx, ev)
		return
	}
	ln.wheel.push(ln.now+t.interval, s.nextKey(t.owner), idx)
}

// laneRun executes ln's events with at < end (at <= end when incl) in
// key order, leaving the lane clock at end unless it is already past.
func (s *Sim) laneRun(ln *lane, end time.Duration, incl bool) {
	for {
		entry, ok := ln.peekLive()
		if !ok || entry.at > end || (entry.at == end && !incl) {
			break
		}
		s.laneExec(ln, entry)
	}
	if ln.now < end {
		ln.now = end
	}
}

// Step executes the next pending event — the globally minimal one by
// (at, seq) across all lanes — on the calling goroutine. It reports
// whether an event was executed.
func (s *Sim) Step() bool {
	sh := &s.shd
	coord := sh.coord
	if sh.n == 0 {
		// The one lane is the whole simulation: no merge, no clocks to park.
		entry, ok := coord.peekLive()
		if ok {
			s.laneExec(coord, entry)
		}
		return ok
	}
	ln, entry, ok := s.minLaneAt(1<<62 - 1)
	if !ok {
		return false
	}
	if ln == coord {
		s.syncLanes(entry.at) // see runSerial
	}
	s.laneExec(ln, entry)
	return true
}

// RunUntil executes events in order until the queue is exhausted or the
// next event is later than t, then advances every clock still behind t
// to exactly t. A horizon earlier than now moves nothing.
func (s *Sim) RunUntil(t time.Duration) {
	if sh := &s.shd; sh.n == 0 {
		s.laneRun(sh.coord, t, true)
		return
	}
	s.runWindows(t)
}

// Run executes all pending events until the queue is exhausted. Periodic
// tickers re-arm themselves, so Run on a simulation with tickers will not
// terminate; use RunUntil with a horizon instead.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// Pending returns the number of live scheduled events.
func (s *Sim) Pending() int {
	total := 0
	var scratch []heapEntry
	for _, ln := range s.shd.lanes {
		var n int
		n, scratch = ln.pending(scratch)
		total += n
	}
	return total
}

// String summarizes the simulator state, mainly for debugging.
func (s *Sim) String() string {
	return fmt.Sprintf("simnet: t=%v nodes=%d pending=%d", s.Now(), len(s.nodes), s.Pending())
}
