package simnet

// Envelope is a compact tagged-union representation for the small
// fixed-shape datagrams that dominate protocol traffic: raft votes,
// heartbeats and acks, gossip probes, delivery acknowledgements. A
// struct sent through Port.Send is boxed into a Message interface —
// one heap allocation per message, which at city scale is the single
// largest allocation source in a run. An Envelope instead travels
// inline in the simulator's delivery arena: sending one costs no
// allocation at all. Every Port carries envelopes (Port.SendEnvelope),
// so a fixed-shape message has this one encoding on every backend;
// only messages with a variable payload (entries, piggybacked updates,
// data items) stay boxed structs.
//
// Kind is a protocol-defined discriminator (namespaced per protocol
// port, so protocols assign kinds independently); Flag, A–D, S and T
// carry the message fields under protocol-defined meaning; Bytes is
// the accounted wire size of the message.
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

// Size implements Sized, so an Envelope boxed into a generic port's
// mux wrapper accounts the same wire size as the inline path.
func (e Envelope) Size() int { return int(e.Bytes) }

// EnvelopeHandler consumes envelopes arriving at a port. The pointer is
// valid only for the duration of the call: the storage belongs to the
// simulator's delivery arena and is recycled afterwards. Envelope and
// boxed traffic flow independently: envelopes reach only the port's
// EnvelopeHandler, boxed messages only its Handler.
type EnvelopeHandler func(from NodeID, env *Envelope)
