package simnet

import (
	"math/rand"
	"time"
)

// Port is the node-side network surface protocol implementations are
// written against. *Endpoint implements Port directly (single-protocol
// nodes); *Mux fans one endpoint out to several named Ports so that a
// node can run gossip, consensus, data sync and control planes
// side-by-side — which is exactly what an ML4 edge node does.
type Port interface {
	// ID returns the node identifier.
	ID() NodeID
	// Now returns the current virtual time.
	Now() time.Duration
	// Rand returns the deterministic random source.
	Rand() *rand.Rand
	// Up reports whether the node is currently up.
	Up() bool
	// Send transmits msg to the destination node.
	Send(to NodeID, msg Message) bool
	// OnMessage installs the message handler.
	OnMessage(h Handler)
	// After schedules fn unless the node is down when it fires.
	After(d time.Duration, fn func()) *Timer
	// Every runs fn periodically, skipping ticks while down.
	Every(interval time.Duration, fn func()) *Ticker
	// OnUp registers a recovery callback.
	OnUp(fn func())
	// OnDown registers a crash callback.
	OnDown(fn func())
}

var _ Port = (*Endpoint)(nil)

// protoOverhead is the framing cost in bytes attributed to tagging a
// message with its protocol name, whether it travels as an envelope
// (generic Ports) or as a native event field (simulated endpoints).
const protoOverhead = 4

// envelope wraps a protocol message with its protocol name for routing
// at the receiving mux. Simulated endpoints bypass it (see
// Sim.send); it remains the wire format for generic Ports such as
// realnet adapters.
type envelope struct {
	Proto string
	Msg   Message
}

// Size attributes the inner message size plus a small header.
func (e envelope) Size() int { return protoOverhead + messageSize(e.Msg) }

// Mux multiplexes one port among multiple named protocols. Messages
// sent through a protocol port are wrapped in an envelope; the mux
// routes arriving envelopes to the port registered under that name.
// Construct with NewMux (simulated endpoints) or NewPortMux (any Port,
// e.g. a real-network node); either takes over the message handler.
//
// Over a simulated *Endpoint the mux short-circuits the envelope
// entirely: sends go through Sim.send (no per-message boxing) and
// handlers register directly on the simulator node.
type Mux struct {
	ep          Port
	sim         *Endpoint // non-nil when ep is a simulated endpoint
	handlers    map[string]Handler
	envHandlers map[string]EnvelopeHandler
}

// NewMux creates a mux over a simulated endpoint.
func NewMux(ep *Endpoint) *Mux { return NewPortMux(ep) }

// NewPortMux creates a mux over any Port implementation.
func NewPortMux(p Port) *Mux {
	m := &Mux{ep: p, handlers: make(map[string]Handler)}
	m.sim, _ = p.(*Endpoint)
	p.OnMessage(m.dispatch)
	return m
}

// RegisterMuxWire registers the mux's envelope type with a wire codec
// (e.g. realnet's datagram codec). Required when multiplexed protocols
// run over a real network.
func RegisterMuxWire(register func(any)) {
	register(envelope{})
}

func (m *Mux) dispatch(from NodeID, msg Message) {
	env, ok := msg.(envelope)
	if !ok {
		return // non-multiplexed traffic is not for this node's stack
	}
	// Envelopes sent over a generic Port arrive boxed inside the wire
	// envelope; route them to the protocol's envelope handler.
	if e, ok := env.Msg.(Envelope); ok {
		if eh, ok := m.envHandlers[env.Proto]; ok && eh != nil {
			eh(from, &e)
			return
		}
	}
	if h, ok := m.handlers[env.Proto]; ok && h != nil {
		h(from, env.Msg)
	}
}

// Port returns the named protocol port, creating it on first use. All
// traffic sent through it is tagged with the protocol name and only
// messages tagged with the same name are delivered to its handler.
func (m *Mux) Port(proto string) Port {
	return &protoPort{mux: m, proto: proto}
}

// protoPort is one protocol's view of the shared endpoint.
type protoPort struct {
	mux   *Mux
	proto string
}

var (
	_ Port            = (*protoPort)(nil)
	_ EnvelopeCarrier = (*protoPort)(nil)
	_ ArgScheduler    = (*protoPort)(nil)
)

func (p *protoPort) ID() NodeID         { return p.mux.ep.ID() }
func (p *protoPort) Now() time.Duration { return p.mux.ep.Now() }
func (p *protoPort) Rand() *rand.Rand   { return p.mux.ep.Rand() }
func (p *protoPort) Up() bool           { return p.mux.ep.Up() }
func (p *protoPort) OnUp(fn func())     { p.mux.ep.OnUp(fn) }
func (p *protoPort) OnDown(fn func())   { p.mux.ep.OnDown(fn) }

func (p *protoPort) OnMessage(h Handler) {
	if ep := p.mux.sim; ep != nil {
		ep.node.setProtoHandler(p.proto, h)
		return
	}
	p.mux.handlers[p.proto] = h
}

func (p *protoPort) Send(to NodeID, msg Message) bool {
	if ep := p.mux.sim; ep != nil {
		return ep.sim.send(ep.node, p.proto, to, msg, nil)
	}
	return p.mux.ep.Send(to, envelope{Proto: p.proto, Msg: msg})
}

// SendEnvelope transmits env without boxing: over a simulated endpoint
// the payload travels inline in the event arena. Generic ports fall
// back to the boxed wire envelope, preserving semantics (and byte
// accounting, via Envelope.Size) at the cost of the allocation.
func (p *protoPort) SendEnvelope(to NodeID, env Envelope) bool {
	if ep := p.mux.sim; ep != nil {
		return ep.sim.send(ep.node, p.proto, to, nil, &env)
	}
	return p.mux.ep.Send(to, envelope{Proto: p.proto, Msg: env})
}

// OnEnvelope installs the envelope handler for this protocol.
func (p *protoPort) OnEnvelope(h EnvelopeHandler) {
	if ep := p.mux.sim; ep != nil {
		ep.node.setProtoEnvHandler(p.proto, h)
		return
	}
	if p.mux.envHandlers == nil {
		p.mux.envHandlers = make(map[string]EnvelopeHandler)
	}
	p.mux.envHandlers[p.proto] = h
}

func (p *protoPort) After(d time.Duration, fn func()) *Timer {
	return p.mux.ep.After(d, fn)
}

// AfterArg delegates to the underlying port's ArgScheduler, falling
// back to a capturing closure over generic ports.
func (p *protoPort) AfterArg(d time.Duration, fn func(uint64), arg uint64) *Timer {
	if as, ok := p.mux.ep.(ArgScheduler); ok {
		return as.AfterArg(d, fn, arg)
	}
	return p.mux.ep.After(d, func() { fn(arg) })
}

func (p *protoPort) Every(interval time.Duration, fn func()) *Ticker {
	return p.mux.ep.Every(interval, fn)
}
