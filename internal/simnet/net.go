package simnet

import (
	"fmt"
	"math/rand"
	"time"
)

// NodeID identifies a node in the simulated network.
type NodeID string

// Message is the payload carried between nodes. Messages are delivered by
// reference; senders and receivers must treat them as immutable after
// Send. A message may implement Sized to contribute a realistic byte size
// to traffic statistics.
type Message any

// Sized is implemented by messages that know their encoded size in bytes.
type Sized interface {
	Size() int
}

// defaultMessageSize is attributed to messages that do not implement
// Sized. It approximates a small protocol datagram.
const defaultMessageSize = 100

// Handler consumes messages arriving at an endpoint.
type Handler func(from NodeID, msg Message)

// protoEntry binds one protocol name to its handlers on a node: h for
// boxed messages, eh for envelopes (see env.go). Either may be nil; the
// "" entry holds only the plain-traffic envelope handler, since plain
// boxed traffic goes to node.handler.
type protoEntry struct {
	proto string
	h     Handler
	eh    EnvelopeHandler
}

// node is the simulator-internal state of a registered node.
type node struct {
	id      NodeID
	down    bool
	handler Handler
	// protoHandlers routes natively multiplexed traffic (see
	// Sim.send). A node runs a handful of protocols at most, so a
	// linear scan beats a map: the proto strings are shared constants,
	// and Go's string compare short-circuits on pointer equality.
	protoHandlers []protoEntry
	onUp          []func()
	onDown        []func()

	// ln is the lane that executes the node's events and rng the
	// stream its draws come from (st with shard lanes, the Sim's shared
	// stream without); with shard lanes, rank (AddNode position) and
	// ctr (private event counter) make up its logical event keys.
	// Assigned by Sim.addToLane.
	ln   *lane
	rng  *rand.Rand
	st   stream
	rank uint32
	ctr  uint64
}

// setProtoHandler installs (or replaces) the handler for proto.
func (n *node) setProtoHandler(proto string, h Handler) {
	for i := range n.protoHandlers {
		if n.protoHandlers[i].proto == proto {
			n.protoHandlers[i].h = h
			return
		}
	}
	n.protoHandlers = append(n.protoHandlers, protoEntry{proto: proto, h: h})
}

// setProtoEnvHandler installs (or replaces) the envelope handler for
// proto, alongside any boxed handler on the same entry.
func (n *node) setProtoEnvHandler(proto string, eh EnvelopeHandler) {
	for i := range n.protoHandlers {
		if n.protoHandlers[i].proto == proto {
			n.protoHandlers[i].eh = eh
			return
		}
	}
	n.protoHandlers = append(n.protoHandlers, protoEntry{proto: proto, eh: eh})
}

// protoHandler looks up the handler for proto, nil if none registered.
func (n *node) protoHandler(proto string) Handler {
	for i := range n.protoHandlers {
		if n.protoHandlers[i].proto == proto {
			return n.protoHandlers[i].h
		}
	}
	return nil
}

// linkKey identifies a directed link override.
type linkKey struct {
	from, to NodeID
}

// linkOverride carries per-link latency/loss settings.
type linkOverride struct {
	latency time.Duration
	loss    float64
}

// netState models connectivity: partitions and per-link overrides.
type netState struct {
	// group maps a node to its partition group. Nodes in different
	// groups cannot exchange messages. Nodes absent from the map are in
	// the implicit group "".
	group map[NodeID]string
	links map[linkKey]linkOverride
}

func (n *netState) init() {
	n.group = make(map[NodeID]string)
	n.links = make(map[linkKey]linkOverride)
}

// Stats aggregates traffic counters for the whole simulation.
type Stats struct {
	Sent      int
	Delivered int
	Dropped   int // lost to link loss, partitions or down nodes
	Bytes     int // bytes of delivered messages
}

// AddNode registers a node and returns its endpoint. Registering the same
// ID twice panics: scenarios construct their topology once, up front, and
// a duplicate ID is a scenario-construction bug.
func (s *Sim) AddNode(id NodeID) *Endpoint {
	if _, ok := s.nodes[id]; ok {
		panic(fmt.Sprintf("simnet: duplicate node %q", id))
	}
	n := &node{id: id}
	s.addToLane(n)
	s.nodes[id] = n
	return &Endpoint{sim: s, node: n}
}

// HasNode reports whether id is registered.
func (s *Sim) HasNode(id NodeID) bool {
	_, ok := s.nodes[id]
	return ok
}

// NodeUp reports whether id is registered and currently up.
func (s *Sim) NodeUp(id NodeID) bool {
	n, ok := s.nodes[id]
	return ok && !n.down
}

// SetDown marks a node down (crashed) or back up. Transitions invoke the
// endpoint's OnDown/OnUp callbacks synchronously. Setting the current
// state again is a no-op.
func (s *Sim) SetDown(id NodeID, down bool) {
	n, ok := s.nodes[id]
	if !ok || n.down == down {
		return
	}
	n.down = down
	if down {
		for _, fn := range n.onDown {
			fn()
		}
		return
	}
	for _, fn := range n.onUp {
		fn()
	}
}

// Partition splits the network into the given groups. A node listed in
// group i can only communicate with nodes in group i. Nodes not listed in
// any group form one extra implicit group together. Calling Partition
// replaces any previous partition.
func (s *Sim) Partition(groups ...[]NodeID) {
	s.net.group = make(map[NodeID]string)
	for i, g := range groups {
		name := fmt.Sprintf("g%d", i)
		for _, id := range g {
			s.net.group[id] = name
		}
	}
}

// HealPartition removes all partition groups.
func (s *Sim) HealPartition() {
	s.net.group = make(map[NodeID]string)
}

// SetLink overrides latency and loss for the directed link from→to.
func (s *Sim) SetLink(from, to NodeID, latency time.Duration, loss float64) {
	s.net.links[linkKey{from, to}] = linkOverride{latency: latency, loss: loss}
	s.shd.laDirty = true // link floors bound the lookahead
}

// DegradeLink overrides both directions of the link a↔b; loss 1.0 cuts
// it.
func (s *Sim) DegradeLink(a, b NodeID, latency time.Duration, loss float64) {
	s.SetLink(a, b, latency, loss)
	s.SetLink(b, a, latency, loss)
}

// ClearLink removes any override for the directed link from→to.
func (s *Sim) ClearLink(from, to NodeID) {
	delete(s.net.links, linkKey{from, to})
	s.shd.laDirty = true
}

// RestoreLink removes the overrides of both directions of a↔b.
func (s *Sim) RestoreLink(a, b NodeID) {
	s.ClearLink(a, b)
	s.ClearLink(b, a)
}

// Stats returns the traffic counters, summed over the lanes.
func (s *Sim) Stats() Stats {
	var total Stats
	for _, ln := range s.shd.lanes {
		total.Sent += ln.stats.Sent
		total.Delivered += ln.stats.Delivered
		total.Dropped += ln.stats.Dropped
		total.Bytes += ln.stats.Bytes
	}
	return total
}

// Reachable reports whether traffic from→to would currently traverse
// the network (same partition group), ignoring loss — even total — and
// node liveness. Combine with NodeUp for end-to-end reachability. The
// len check skips the map hashing entirely in the common healthy-network
// state (no partition).
func (s *Sim) Reachable(from, to NodeID) bool {
	if len(s.net.group) == 0 {
		return true
	}
	return s.net.group[from] == s.net.group[to]
}

// linkParams resolves latency and loss for from→to.
func (s *Sim) linkParams(from, to NodeID) (time.Duration, float64) {
	if len(s.net.links) != 0 {
		if ov, ok := s.net.links[linkKey{from, to}]; ok {
			return ov.latency, ov.loss
		}
	}
	return s.defLat, s.defLoss
}

// send implements message transfer with loss, partitions and down-node
// semantics. Partition and down state are evaluated both at send and at
// delivery time, mirroring how a real datagram can be lost by a failure
// occurring while it is in flight.
//
// proto travels as a delivery field instead of a wrapper message, so
// protocol traffic (the bulk of every ML4 run) avoids one interface
// boxing per message; an empty proto is plain traffic for the node's
// main handler. The payload is msg, or — when env is non-nil — the
// envelope, copied inline into the lane's delivery arena (see env.go).
// Deliveries are events pointing at a pooled payload slot, not
// closures, so a send costs no allocation beyond its arena slots.
//
// All random draws come from the sender's stream and the delivery key
// is assigned by the sender, so with shard lanes the outcome depends
// only on the sender's own history. Same-lane deliveries are pushed
// directly; cross-lane deliveries are buffered in the sender lane's
// outbox during parallel windows and pushed directly between windows.
func (s *Sim) send(src *node, proto string, to NodeID, msg Message, env *Envelope) bool {
	if src.down {
		return false
	}
	ln := src.ln
	ln.stats.Sent++
	dst, ok := s.nodes[to]
	if !ok || !s.Reachable(src.id, to) {
		ln.stats.Dropped++
		return false
	}
	latency, loss := s.linkParams(src.id, to)
	rng := src.rng
	if loss > 0 && rng.Float64() < loss {
		ln.stats.Dropped++
		return false
	}
	// Jitter up to 10% keeps simultaneous broadcasts from arriving in
	// pathological lockstep while staying deterministic under the seed.
	if latency > 0 {
		latency += time.Duration(rng.Int63n(int64(latency)/10 + 1))
	}
	deliveries := 1
	if s.defDup > 0 && rng.Float64() < s.defDup {
		deliveries = 2
	}
	for i := 0; i < deliveries; i++ {
		// A duplicate trails the original by up to one latency.
		at := ln.now + latency + time.Duration(i)*latency
		seq := s.nextKey(src)
		var d *delivery
		if s.shd.inPar && dst.ln != ln {
			if at < s.shd.windowEnd {
				panic(fmt.Sprintf("simnet: lookahead violated: %s→%s arrives %v inside window ending %v",
					src.id, to, at, s.shd.windowEnd))
			}
			ln.outbox = append(ln.outbox, xfer{at: at, seq: seq, dst: dst})
			d = &ln.outbox[len(ln.outbox)-1].delivery
		} else {
			d = dst.ln.queueDelivery(at, seq, dst)
		}
		d.from, d.proto, d.msg = src.id, proto, msg
		if env != nil {
			d.env = *env
		}
	}
	return true
}

// laneDeliver executes a delivery event on the destination's lane: the
// in-flight checks mirror a real datagram being lost to a failure that
// happened after send. Protocol traffic dispatches straight to the
// node's per-protocol handler; the byte accounting matches the wire
// envelope it replaces (mux.go). An inline envelope goes to the
// envelope handler of its protocol — the "" entry for plain traffic —
// and nowhere else.
func (s *Sim) laneDeliver(ln *lane, dst *node, d *delivery) {
	if dst.down || !s.Reachable(d.from, dst.id) {
		ln.stats.Dropped++
		return
	}
	ln.stats.Delivered++
	if d.env.Kind != 0 {
		size := int(d.env.Bytes)
		if d.proto != "" {
			size += protoOverhead
		}
		ln.stats.Bytes += size
		for i := range dst.protoHandlers {
			if e := &dst.protoHandlers[i]; e.proto == d.proto {
				if e.eh != nil {
					e.eh(d.from, &d.env)
				}
				return
			}
		}
		return
	}
	size := messageSize(d.msg)
	if d.proto != "" {
		size += protoOverhead
	}
	ln.stats.Bytes += size
	if d.proto != "" {
		if h := dst.protoHandler(d.proto); h != nil {
			h(d.from, d.msg)
		}
		return
	}
	if dst.handler != nil {
		dst.handler(d.from, d.msg)
	}
}

func messageSize(msg Message) int {
	if sz, ok := msg.(Sized); ok {
		return sz.Size()
	}
	return defaultMessageSize
}
