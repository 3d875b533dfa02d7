package simnet

import (
	"math/rand"
	"time"
)

// Port is the node-side network surface protocol implementations are
// written against. *Endpoint implements Port directly (single-protocol
// nodes); *Mux fans one endpoint out to several named Ports so that a
// node can run gossip, consensus, data sync and control planes
// side-by-side — which is exactly what an ML4 edge node does; a
// real-network node (realnet) implements it over a socket. Every Port
// carries both boxed messages and inline envelopes, and schedules
// argument timers, so protocol code has one way to send each message
// whatever the backend.
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
	// SendEnvelope transmits env to the destination node with the same
	// loss/latency/partition semantics as Send.
	SendEnvelope(to NodeID, env Envelope) bool
	// OnEnvelope installs the envelope handler.
	OnEnvelope(h EnvelopeHandler)
	// After schedules fn unless the node is down when it fires.
	After(d time.Duration, fn func()) *Timer
	// AfterArg schedules fn(arg) like After; a caller that binds fn
	// once pays no closure per schedule.
	AfterArg(d time.Duration, fn func(uint64), arg uint64) *Timer
	// Every runs fn periodically, skipping ticks while down.
	Every(interval time.Duration, fn func()) *Ticker
	// OnUp registers a recovery callback.
	OnUp(fn func())
	// OnDown registers a crash callback.
	OnDown(fn func())
}

var _ Port = (*Endpoint)(nil)

// protoOverhead is the framing cost in bytes attributed to tagging a
// message with its protocol name, whether it travels in the mux
// wrapper (generic Ports) or as a native event field (simulated
// endpoints).
const protoOverhead = 4

// envelope wraps a protocol message (a boxed struct or an Envelope)
// with its protocol name for routing at the receiving mux. Simulated
// endpoints bypass it (see Sim.send); it remains the wire format for
// generic Ports such as realnet nodes.
type envelope struct {
	Proto string
	Msg   Message
}

// Size attributes the inner message size plus a small header.
func (e envelope) Size() int { return protoOverhead + messageSize(e.Msg) }

// Mux multiplexes one port among multiple named protocols. Messages
// sent through a protocol port are wrapped in an envelope; the mux
// routes arriving envelopes to the port registered under that name.
// Construct with NewPortMux over any Port (a simulated endpoint or a
// real-network node); it takes over the message handler.
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
	// envelope; they go to the protocol's envelope handler only.
	if e, ok := env.Msg.(Envelope); ok {
		if eh := m.envHandlers[env.Proto]; eh != nil {
			eh(from, &e)
		}
		return
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

var _ Port = (*protoPort)(nil)

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
// the payload travels inline in the delivery arena. Over a generic port it
// rides in the mux wrapper like any message, preserving semantics (and
// byte accounting, via Envelope.Size).
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

func (p *protoPort) AfterArg(d time.Duration, fn func(uint64), arg uint64) *Timer {
	return p.mux.ep.AfterArg(d, fn, arg)
}

func (p *protoPort) Every(interval time.Duration, fn func()) *Ticker {
	return p.mux.ep.Every(interval, fn)
}
