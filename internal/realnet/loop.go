package realnet

import (
	"container/heap"
	"math/bits"
	"sync"
	"time"

	"repro/internal/simnet"
)

// event is one unit of loop work for node: a callback, or, when fn is
// nil, a datagram for the node's handler — carried by value, so a
// received datagram costs no closure.
type event struct {
	node *Node
	fn   func()
	from simnet.NodeID
	msg  simnet.Message
}

// timerEntry is one pending entry in a loop's heap: an After, AfterArg
// or Every of a node, a shaped datagram waiting out its link's latency,
// a crash transition's hooks, or a Cluster.At callback. Every field but
// node is guarded by loop.mu.
type timerEntry struct {
	due    int64 // wall nanoseconds on the loop clock
	seq    uint64
	idx    int   // heap position; -1 once fired, stopped or never queued
	node   *Node // nil: runs whatever state the node that queued it is in
	fn     func()
	argFn  func(uint64)
	arg    uint64
	period int64 // > 0 for a ticker: wall nanoseconds between fires
}

// timerHeap is a container/heap min-heap on (due, seq) that keeps each
// entry's index, so Stop removes its entry instead of leaving it to wake
// the loop for nothing.
type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *timerHeap) Push(x any) {
	e := x.(*timerEntry)
	e.idx = len(*h)
	*h = append(*h, e)
}

func (h *timerHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	e.idx = -1
	return e
}

// LateBuckets is the number of log2 buckets in LoopStats.Late.
const LateBuckets = 24

// LoopStats is what one event loop did: the machinery's side of "why
// did the live city fall behind its clock". Busy over Wall is the share
// of wall time the loop was dispatching rather than waiting; Late is a
// histogram of how long after its due time each heap entry ran.
type LoopStats struct {
	Events int64 // channel events dispatched: datagrams and Do callbacks
	// Fires counts heap entries run: timer and ticker fires (those
	// skipped while down too), At callbacks, crash hooks and delayed
	// sends, whose lateness in Late is how late the datagram left.
	Fires int64
	Busy  time.Duration // wall time spent dispatching
	Wall  time.Duration // wall time since the loop started
	// Late[0] counts fires less than 1 µs late; Late[i] for i ≥ 1 counts
	// fires [2^(i-1), 2^i) µs late; the last bucket takes everything
	// beyond.
	Late [LateBuckets]int64
}

// BusyFrac is Busy over Wall: 1 means the loop never waited.
func (s LoopStats) BusyFrac() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(s.Wall)
}

// LateQuantile returns the upper bound of the lateness bucket holding
// the q-quantile of fires (zero when nothing fired).
func (s LoopStats) LateQuantile(q float64) time.Duration {
	var total int64
	for _, c := range s.Late {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total-1)) + 1
	for i, c := range s.Late {
		if rank -= c; rank <= 0 {
			return time.Microsecond << i
		}
	}
	return time.Microsecond << (LateBuckets - 1)
}

// loop is the one goroutine that runs a world's callbacks: datagrams
// and Do functions arrive on its event channel; everything with a due
// time — timers, tickers, shaped datagrams, crash hooks and a Cluster's
// At callbacks — waits in its heap, watched by one reusable channel
// timer. A standalone Node owns a loop; a Cluster owns one, which with
// Serialize all its nodes share, so nothing else touches their state.
//
// The loop clock stands at zero until start bases it (at a Cluster's
// epoch), so an entry queued before start counts from there. A channel
// event is dispatched without reading the clock or locking the heap.
// The heap is looked at only when the clock fires; adding or removing
// an entry re-arms the clock, under mu, whenever it changes the heap's
// earliest entry. A fire left stale in the channel by such a re-arm
// finds nothing due and is a harmless spurious wake.
type loop struct {
	events chan event
	quit   chan struct{}
	exited chan struct{}

	mu     sync.Mutex
	base   time.Time // the clock's zero; set by start
	timers timerHeap
	seq    uint64
	clock  *time.Timer
	armed  bool
	due    int64 // what the clock is armed for, when armed
	firing bool  // fireDue runs and re-arms the clock when it ends
	stats  LoopStats
}

func newLoop(depth int) *loop {
	clock := time.NewTimer(time.Hour)
	clock.Stop()
	return &loop{
		events: make(chan event, depth),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
		clock:  clock,
	}
}

// since is the loop clock: wall nanoseconds since base, zero before
// start. The loop reads it freely; anyone else holds mu.
func (l *loop) since() int64 {
	if l.base.IsZero() {
		return 0
	}
	return int64(time.Since(l.base))
}

// start bases the clock at base and runs the loop.
func (l *loop) start(base time.Time) {
	l.mu.Lock()
	l.base = base
	l.armLocked()
	l.mu.Unlock()
	go l.run()
}

// stop ends the loop, so nothing left in its heap runs, and, if it was
// started, waits for it to exit.
func (l *loop) stop() {
	close(l.quit)
	l.mu.Lock()
	started := !l.base.IsZero()
	l.clock.Stop()
	l.armed = false
	l.mu.Unlock()
	if started {
		<-l.exited
	}
}

// drain dispatches, on the caller's goroutine, the events that reach a
// stopped loop until none has arrived for 5 ms (or for 1 s in all), so
// what was in flight when it stopped is delivered and counted. Its heap
// never fires again: a timer a drained handler arms is dropped.
func (l *loop) drain() {
	limit := time.After(time.Second)
	for {
		select {
		case ev := <-l.events:
			l.dispatch(ev)
		case <-time.After(5 * time.Millisecond):
			return
		case <-limit:
			return
		}
	}
}

func (l *loop) run() {
	defer close(l.exited)
	for {
		var ev event
		fire := false
		select {
		case ev = <-l.events:
		case <-l.clock.C:
			fire = true
		case <-l.quit:
			return
		}
		// Busy until both queues run dry: the clock is read here, at
		// each timer batch and when the loop goes idle, never per event.
		busy := l.since()
		var events int64
		for {
			if fire {
				busy = l.fireDue(busy, &events)
			} else {
				l.dispatch(ev)
				events++
			}
			select {
			case ev = <-l.events:
				fire = false
				continue
			case <-l.clock.C:
				fire = true
				continue
			case <-l.quit:
				return
			default:
			}
			break
		}
		now := l.since()
		l.mu.Lock()
		l.stats.Events += events
		l.stats.Busy += time.Duration(now - busy)
		l.mu.Unlock()
	}
}

// isClosed reports whether n has shut down; its loop drops n's events
// and timers from then on.
func (n *Node) isClosed() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

func (l *loop) dispatch(ev event) {
	n := ev.node
	if n.isClosed() {
		return
	}
	if ev.fn != nil {
		ev.fn()
	} else {
		n.receive(ev.from, ev.msg)
	}
}

// fireDue runs every entry due by now, re-arms the clock, and folds the
// busy period so far (from busy, with *events channel events) into the
// stats. It returns now, the new start of the busy period. An entry
// with an owner is skipped while that node is down or closed; one
// without always runs, as simnet delivers a message whose sender
// crashed after sending it.
func (l *loop) fireDue(busy int64, events *int64) int64 {
	now := l.since()
	l.mu.Lock()
	l.stats.Events += *events
	l.stats.Busy += time.Duration(now - busy)
	*events = 0
	l.firing = true
	l.mu.Unlock()
	for {
		l.mu.Lock()
		if len(l.timers) == 0 || l.timers[0].due > now {
			l.firing = false
			l.armLocked()
			l.mu.Unlock()
			return now
		}
		e := l.timers[0]
		n := e.node
		closed := n != nil && n.isClosed()
		l.stats.Fires++
		l.stats.Late[lateBucket(now-e.due)]++
		fn, argFn, arg := e.fn, e.argFn, e.arg
		if e.period > 0 && !closed {
			// Keep the phase and drop the ticks the loop missed.
			e.due += e.period * ((now-e.due)/e.period + 1)
			heap.Fix(&l.timers, 0)
		} else {
			heap.Pop(&l.timers)
			e.fn, e.argFn = nil, nil
		}
		l.mu.Unlock()
		if closed || n != nil && n.Down() {
			continue
		}
		if fn != nil {
			fn()
		} else {
			argFn(arg)
		}
	}
}

func lateBucket(late int64) int {
	if late < 0 {
		late = 0
	}
	b := bits.Len64(uint64(late / int64(time.Microsecond)))
	if b >= LateBuckets {
		b = LateBuckets - 1
	}
	return b
}

// armLocked sets the clock for the heap's earliest entry, or stops it
// when the heap is empty; before start it leaves the clock alone.
// Caller holds l.mu.
func (l *loop) armLocked() {
	if l.base.IsZero() {
		return
	}
	if len(l.timers) == 0 {
		if l.armed {
			l.clock.Stop()
			l.armed = false
		}
		return
	}
	due := l.timers[0].due
	l.clock.Reset(time.Duration(due - l.since()))
	l.armed, l.due = true, due
}

// now reads the loop clock from any goroutine.
func (l *loop) now() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.since()
}

// after queues e wait from now on the loop clock.
func (l *loop) after(e *timerEntry, wait time.Duration) {
	l.mu.Lock()
	l.pushLocked(e, l.since()+int64(wait))
	l.mu.Unlock()
}

// at queues e at due on the loop clock; entries due at one instant run
// in the order they were queued.
func (l *loop) at(e *timerEntry, due int64) {
	l.mu.Lock()
	l.pushLocked(e, due)
	l.mu.Unlock()
}

// pushLocked queues e at due and re-arms the clock if e is now the
// earliest entry. Caller holds l.mu.
func (l *loop) pushLocked(e *timerEntry, due int64) {
	e.due = due
	l.seq++
	e.seq = l.seq
	heap.Push(&l.timers, e)
	if e.idx == 0 && !l.firing && (!l.armed || due < l.due) {
		l.armLocked()
	}
}

// remove takes e out of the heap; it reports whether e was still
// queued, which for a one-shot timer means the fire was prevented.
func (l *loop) remove(e *timerEntry) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.idx < 0 {
		return false
	}
	top := e.idx == 0
	heap.Remove(&l.timers, e.idx)
	e.fn, e.argFn = nil, nil
	if top && !l.firing {
		l.armLocked()
	}
	return true
}

func (l *loop) snapshot() LoopStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	if !l.base.IsZero() {
		s.Wall = time.Since(l.base)
	}
	return s
}
