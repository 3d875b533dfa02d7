package simnet

import (
	"math/rand"
	"time"
)

// Endpoint is a node's interface to the simulated network. Protocol state
// machines hold an Endpoint and register a message handler; they schedule
// their periodic work through the endpoint so that timers are silenced
// while the node is down (a crashed device does not run its timers).
type Endpoint struct {
	sim  *Sim
	node *node
}

var _ Clock = (*Endpoint)(nil)

// ID returns the node's identifier.
func (e *Endpoint) ID() NodeID { return e.node.id }

// Now returns the current virtual time: the node's lane clock — equal
// to the global clock at barriers, and the only clock a node's events
// may read during a parallel window.
func (e *Endpoint) Now() time.Duration { return e.node.ln.now }

// Rand returns the node's deterministic random source: the shared
// simulation stream, or with shard lanes the node's private stream (so
// draw order cannot depend on lane interleaving).
func (e *Endpoint) Rand() *rand.Rand { return e.node.rng }

// Up reports whether the node is currently up.
func (e *Endpoint) Up() bool { return !e.node.down }

// OnMessage installs the handler invoked for every message delivered to
// this node. Only one handler is active; protocols that multiplex install
// a dispatching handler.
func (e *Endpoint) OnMessage(h Handler) { e.node.handler = h }

// OnDown registers a callback invoked synchronously when the node
// transitions to down.
func (e *Endpoint) OnDown(fn func()) { e.node.onDown = append(e.node.onDown, fn) }

// OnUp registers a callback invoked synchronously when the node
// transitions back to up. Protocols typically reset volatile state and
// re-arm their timers here.
func (e *Endpoint) OnUp(fn func()) { e.node.onUp = append(e.node.onUp, fn) }

// Send transmits msg to the destination node, subject to the network's
// latency, loss, partition and liveness state. It reports whether the
// message entered the network (a true result does not imply delivery).
func (e *Endpoint) Send(to NodeID, msg Message) bool {
	return e.sim.send(e.node, "", to, msg, nil)
}

// After schedules fn to run once, d from now, unless the node is down at
// that moment. The callback is skipped (not deferred) if the node is down
// when the timer fires. The down-gate is the event's owner field, not a
// wrapping closure, so a node-scoped timer costs the same as a bare one.
func (e *Endpoint) After(d time.Duration, fn func()) *Timer {
	ev, ln := e.sim.scheduleOn(e.node, e.node.ln.now+d)
	ev.owner = e.node
	ev.fn = fn
	return ln.newTimer(ev)
}

// SendEnvelope transmits env inline, with Send's semantics: plain
// traffic for the destination's OnEnvelope handler.
func (e *Endpoint) SendEnvelope(to NodeID, env Envelope) bool {
	return e.sim.send(e.node, "", to, nil, &env)
}

// OnEnvelope installs the handler for plain (unmultiplexed) envelopes.
func (e *Endpoint) OnEnvelope(h EnvelopeHandler) { e.node.setProtoEnvHandler("", h) }

// AfterArg schedules fn(arg) to run once, d from now, with the same
// down-gating as After. fn rides in the event together with its
// argument, so a caller that binds fn once (a method value) pays no
// closure allocation per schedule.
func (e *Endpoint) AfterArg(d time.Duration, fn func(uint64), arg uint64) *Timer {
	ev, ln := e.sim.scheduleOn(e.node, e.node.ln.now+d)
	ev.owner = e.node
	ev.argFn = fn
	ev.arg = arg
	return ln.newTimer(ev)
}

// Ticker is a periodic node-scoped timer. Simulated tickers own a
// single pooled event that re-arms itself (see Sim.laneTick); external
// tickers delegate to the wrapped cancel function.
type Ticker struct {
	stopped  bool
	external func()

	// Simulated mode.
	owner    *node
	interval time.Duration
	fn       func()
	ev       *event
	gen      uint32
}

// NewExternalTicker wraps an external cancel function in a Ticker for
// alternative Port implementations.
func NewExternalTicker(stop func()) *Ticker {
	return &Ticker{external: stop}
}

// Stop permanently cancels the ticker.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.external != nil {
		t.external()
		return
	}
	if t.ev != nil && t.ev.gen == t.gen && !t.ev.dead {
		t.ev.dead = true
	}
}

// Every runs fn every interval, starting one interval from now. Ticks
// that occur while the node is down are skipped, but the ticker keeps
// re-arming, so it resumes automatically when the node comes back up.
// Tickers are owned by their node: they fire, re-arm and must be
// stopped on the owning node's lane (all in-repo protocol
// code stops timers from the owner's own events, which satisfies this).
func (e *Endpoint) Every(interval time.Duration, fn func()) *Ticker {
	t := &Ticker{owner: e.node, interval: interval, fn: fn}
	ev, _ := e.sim.scheduleOn(e.node, e.node.ln.now+interval)
	ev.tick = t
	t.ev = ev
	t.gen = ev.gen
	return t
}
