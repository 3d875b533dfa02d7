package realnet

import (
	"container/heap"
	"math"
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
	Events int64 // events dispatched: datagrams and Do callbacks
	// Wakes counts the loop's returns from its wait; each starts a busy
	// period, so Events over Wakes is what one wake dispatched.
	Wakes int64
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
// and Do functions, and everything with a due time — timers, tickers,
// shaped datagrams, crash hooks and a Cluster's At callbacks — waiting
// in its heap. A standalone Node owns a loop; a Cluster owns one, which
// with Serialize all its nodes share, so nothing else touches their
// state.
//
// Every loop waits one way (wait): it runs what is due, then takes what
// is ready, and only then sleeps in its poller until the heap's earliest
// entry is due. A serialized cluster's poller on Linux is the reactor
// (reactor_linux.go), which reads its nodes' sockets itself; every other
// loop's is a chanPoller, which takes the datagrams of one reader
// goroutine per node from the event channel. Do, or an entry earlier
// than the one the loop sleeps until, wakes it.
//
// The loop clock stands at zero until start bases it (at a Cluster's
// epoch), so an entry queued before start counts from there. The loop
// reads the clock and the heap before each event, so that a burst of
// ready events never holds a due entry back.
type loop struct {
	events chan event
	quit   chan struct{}
	exited chan struct{}
	poll   poller

	mu     sync.Mutex
	base   time.Time // the clock's zero; set by start
	timers timerHeap
	seq    uint64
	// armed: the loop sleeps until due (math.MaxInt64 for no limit), so
	// an earlier entry must wake it.
	armed bool
	due   int64
	stats LoopStats
}

// poller is how a loop waits: the reactor, which reads the nodes'
// sockets itself, or a chanPoller, which leaves them to reader
// goroutines.
type poller interface {
	// listen binds a socket at bind for n.
	listen(n *Node, bind string) (socket, error)
	// next returns a queued Do callback or a received datagram; with
	// neither it waits until the loop clock, which reads now, reaches due
	// (math.MaxInt64: no limit; due <= now: not at all) and looks once
	// more.
	next(l *loop, now, due int64) (event, bool)
	// wake ends a wait in progress, or the next one. Caller holds mu.
	wake()
	// queued wakes l, if it sleeps, for an event just sent on its
	// channel, unless the send itself ended the wait.
	queued(l *loop)
	// close releases the poller. Caller holds mu.
	close()
}

// chanPoller waits on the loop's event channel, fed by a reader
// goroutine per node, a one-slot wake channel and one reusable timer,
// which is reset only when the time it should fire at moves.
type chanPoller struct {
	wakes chan struct{}
	timer *time.Timer
	at    int64 // the loop-clock time timer fires at; 0 once it has
}

func newChanPoller() *chanPoller {
	c := &chanPoller{wakes: make(chan struct{}, 1), timer: time.NewTimer(time.Hour)}
	c.timer.Stop()
	return c
}

func (c *chanPoller) listen(_ *Node, bind string) (socket, error) { return listenUDP(bind) }

func (c *chanPoller) next(l *loop, now, due int64) (event, bool) {
	if due <= now {
		select {
		case ev := <-l.events:
			return ev, true
		default:
			return event{}, false
		}
	}
	var fire <-chan time.Time
	if due != math.MaxInt64 {
		if due != c.at {
			c.timer.Reset(time.Duration(due - now))
			c.at = due
		}
		fire = c.timer.C
	}
	select {
	case ev := <-l.events:
		return ev, true
	case <-c.wakes:
	case <-fire:
		c.at = 0
	}
	return event{}, false
}

func (c *chanPoller) wake() {
	select {
	case c.wakes <- struct{}{}:
	default:
	}
}

// queued does nothing: a sleeping chanPoller receives the event itself.
func (c *chanPoller) queued(*loop) {}

func (c *chanPoller) close() { c.timer.Stop() }

// newLoop makes a loop that waits through p.
func newLoop(depth int, p poller) *loop {
	return &loop{
		events: make(chan event, depth),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
		poll:   p,
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
	l.mu.Unlock()
	go l.run()
}

// stop ends the loop, so nothing left in its heap runs, and, if it was
// started, waits for it to exit.
func (l *loop) stop() {
	close(l.quit)
	l.mu.Lock()
	started := !l.base.IsZero()
	l.poll.wake()
	l.mu.Unlock()
	if started {
		<-l.exited
	}
}

// release frees a stopped loop's poller, once every node on it has
// closed.
func (l *loop) release() {
	l.mu.Lock()
	l.poll.close()
	l.mu.Unlock()
}

// drain dispatches, on the caller's goroutine, the events that reach a
// stopped loop until none has arrived for 5 ms (or for 1 s in all), so
// what was in flight when it stopped is delivered and counted. Its heap
// never fires again: a timer a drained handler arms is dropped.
func (l *loop) drain() {
	const quiet = 5 * time.Millisecond
	limit := time.Now().Add(time.Second)
	last := time.Now()
	for {
		wait := min(quiet-time.Since(last), time.Until(limit))
		if wait <= 0 {
			return
		}
		now := l.now()
		if ev, ok := l.poll.next(l, now, now+int64(wait)); ok {
			l.dispatch(ev)
			last = time.Now()
		}
	}
}

// step is what a loop's wait found.
type step int

const (
	stepNone  step = iota // nothing ready
	stepEvent             // an event to dispatch
	stepFire              // heap entries may be due
	stepQuit              // the loop is stopping
)

func (l *loop) run() {
	defer close(l.exited)
	for {
		s, ev := l.wait(true)
		// Busy until nothing is ready: the busy clock is read here, at
		// each timer batch and when the loop goes idle.
		busy := l.since()
		var events int64
		for ; s != stepNone; s, ev = l.wait(false) {
			switch s {
			case stepQuit:
				return
			case stepFire:
				busy = l.fireDue(busy, &events)
			default:
				l.dispatch(ev)
				events++
			}
		}
		now := l.since()
		l.mu.Lock()
		l.stats.Wakes++
		l.stats.Events += events
		l.stats.Busy += time.Duration(now - busy)
		l.mu.Unlock()
	}
}

// wait returns what is ready, or, if block is set, sleeps in the
// poller until something is. A due heap entry comes first, then a ready
// event, and only then a sleep until the earliest entry is due. armed
// tells pushLocked, and the reactor's queued, under mu, that a wake is
// needed; the poller looks at the event channel once more after armed
// is set, so a Do queued before it is not slept through.
func (l *loop) wait(block bool) (step, event) {
	for {
		l.mu.Lock()
		due, now := l.nextDueLocked(), l.since()
		l.mu.Unlock()
		if due <= now {
			return stepFire, event{}
		}
		if ev, ok := l.poll.next(l, now, now); ok {
			return stepEvent, ev
		}
		select {
		case <-l.quit:
			return stepQuit, event{}
		default:
		}
		if !block {
			return stepNone, event{}
		}
		l.mu.Lock()
		due, now = l.nextDueLocked(), l.since()
		l.armed, l.due = due > now, due
		l.mu.Unlock()
		if due <= now {
			continue
		}
		ev, ok := l.poll.next(l, now, due)
		l.mu.Lock()
		l.armed = false
		l.mu.Unlock()
		if ok {
			return stepEvent, ev
		}
	}
}

// nextDueLocked is the due time of the heap's earliest entry,
// math.MaxInt64 for an empty heap. Caller holds l.mu.
func (l *loop) nextDueLocked() int64 {
	if len(l.timers) == 0 {
		return math.MaxInt64
	}
	return l.timers[0].due
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

// fireDue runs every entry due by now and folds the busy period so far
// (from busy, with *events events) into the stats. It returns now, the
// new start of the busy period. An entry with an owner is skipped while
// that node is down or closed; one without always runs, as simnet
// delivers a message whose sender crashed after sending it.
func (l *loop) fireDue(busy int64, events *int64) int64 {
	now := l.since()
	l.mu.Lock()
	l.stats.Events += *events
	l.stats.Busy += time.Duration(now - busy)
	*events = 0
	l.mu.Unlock()
	for {
		l.mu.Lock()
		if len(l.timers) == 0 || l.timers[0].due > now {
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

// pushLocked queues e at due and wakes the loop if it sleeps past due.
// Caller holds l.mu.
func (l *loop) pushLocked(e *timerEntry, due int64) {
	e.due = due
	l.seq++
	e.seq = l.seq
	heap.Push(&l.timers, e)
	if l.armed && due < l.due {
		l.armed = false
		l.poll.wake()
	}
}

// remove takes e out of the heap; it reports whether e was still
// queued, which for a one-shot timer means the fire was prevented. A
// loop sleeping until e's due time then wakes once for nothing.
func (l *loop) remove(e *timerEntry) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.idx < 0 {
		return false
	}
	heap.Remove(&l.timers, e.idx)
	e.fn, e.argFn = nil, nil
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
