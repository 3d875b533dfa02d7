package simnet

// Envelope is a compact tagged-union representation for the small
// fixed-shape datagrams that dominate protocol traffic: raft votes,
// heartbeats and acks, gossip probes, delivery acknowledgements. A
// struct sent through Port.Send is boxed into a Message interface —
// one heap allocation per message, which at city scale is the single
// largest allocation source in a run. An Envelope instead travels
// inline in the simulator's event arena: sending one costs no
// allocation at all.
//
// Kind is a protocol-defined discriminator (namespaced per protocol
// port, so protocols assign kinds independently); Flag, A–D, S and T
// carry the message fields under protocol-defined meaning; Bytes is
// the accounted wire size and must equal the Size() of the boxed
// struct the envelope replaces, so traffic statistics are identical
// whichever representation a sender picks.
type Envelope struct {
	Kind  uint16 // protocol-defined discriminator; zero is reserved (no envelope)
	Flag  bool
	A     uint64
	B     uint64
	C     uint64
	D     uint64
	S     NodeID
	T     NodeID
	Bytes int32
}

// Size implements Sized so a boxed Envelope (the generic-Port
// fallback) accounts the same wire size as the native path.
func (e Envelope) Size() int { return int(e.Bytes) }

// EnvelopeHandler consumes envelopes arriving at a protocol port. The
// pointer is valid only for the duration of the call: the storage
// belongs to the simulator's event arena and is recycled afterwards.
type EnvelopeHandler func(from NodeID, env *Envelope)

// EnvelopeCarrier is an optional Port extension for allocation-free
// fixed-size messages. Protocols type-assert once at construction and
// fall back to boxed structs when the port does not implement it
// (e.g. real-network adapters):
//
//	if ec, ok := port.(simnet.EnvelopeCarrier); ok { ... }
//
// A protocol that sends envelopes must install an EnvelopeHandler on
// every peer's port; envelope and boxed traffic flow independently and
// a port may receive both.
type EnvelopeCarrier interface {
	// SendEnvelope transmits env to the destination node with the same
	// loss/latency/partition semantics as Send.
	SendEnvelope(to NodeID, env Envelope) bool
	// OnEnvelope installs the envelope handler.
	OnEnvelope(h EnvelopeHandler)
}
