package dataflow

import (
	"sort"
	"time"

	"repro/internal/crdt"
	"repro/internal/simnet"
	"repro/internal/space"
)

// storeSyncMsg is one delta frame between stores: a batch of coalesced
// entries under a per-link sequence number. Relayed marks frames from
// a redistribution hub — receivers do not re-forward relayed entries
// (the hub already broadcasts to everyone), which keeps ring
// forwarding from duplicating the hub's work.
type storeSyncMsg struct {
	Seq     uint64
	Relayed bool
	Entries []crdt.Entry
}

// storeSyncAck acknowledges one received frame. The sender evicts the
// acked keys from the peer's delta buffer; unacked frames are
// retransmitted (coalesced) on the next sync turn.
type storeSyncAck struct {
	Seq uint64
}

// storeInterest declares which keys the sender wants a redistribution
// hub to relay to it (its own writes still reach every peer directly).
// The set replaces any earlier declaration from the same peer; peers
// that never declare one get the full relay stream. Interest is
// re-sent every sync turn, so a declaration lost on a lossy link heals
// within one period.
type storeInterest struct {
	Keys []string
}

// RegisterWire registers the data plane's message and payload types
// with a wire codec (e.g. realnet's datagram codec). Applications must
// additionally register the concrete types of their item values if
// they are not plain Go scalars.
func RegisterWire(register func(any)) {
	register(storeSyncMsg{})
	register(storeSyncAck{})
	register(storeInterest{})
	register(crdt.Entry{})
	register(Item{})
	register(Label{})
	register(Hop{})
}

// frameOverhead is the fixed encoded cost of one sync frame: sequence
// number, relayed flag, entry count.
const frameOverhead = 13

// ackSize is the encoded cost of one frame acknowledgement.
const ackSize = 12

// Size reports the frame's encoded wire size from real per-entry
// sizing (key + value payload + label + lineage via crdt.EntrySize),
// so link-byte stats measure actual wire cost.
func (m storeSyncMsg) Size() int { return frameOverhead + crdt.EntriesSize(m.Entries) }

// Size reports the ack's encoded wire size.
func (m storeSyncAck) Size() int { return ackSize }

// Size reports the interest declaration's encoded wire size: count
// plus length-prefixed keys.
func (m storeInterest) Size() int {
	n := 8
	for _, k := range m.Keys {
		n += 1 + len(k)
	}
	return n
}

// LinkStats counts sync traffic over one store→peer link (or, from
// SyncStats, over all of a store's links).
type LinkStats struct {
	// Sender side: frames/entries/bytes shipped to the peer and acks
	// heard back.
	FramesSent  uint64
	EntriesSent uint64
	BytesSent   uint64
	AcksIn      uint64
	// Receiver side: frames/entries/bytes that arrived from the peer.
	FramesIn  uint64
	EntriesIn uint64
	BytesIn   uint64
}

// Add folds another counter row into ls.
func (ls *LinkStats) Add(o LinkStats) {
	ls.FramesSent += o.FramesSent
	ls.EntriesSent += o.EntriesSent
	ls.BytesSent += o.BytesSent
	ls.AcksIn += o.AcksIn
	ls.FramesIn += o.FramesIn
	ls.EntriesIn += o.EntriesIn
	ls.BytesIn += o.BytesIn
}

// Store is a governed, replicated data store hosted by one node: local
// writes are LWW entries whose values are Items (with labels), and
// delta synchronization to peers (periodic, or armed by a write through
// SyncWithin) crosses the policy engine in both directions — the sender filters its out-flow, the receiver
// checks its in-flow (each component controls its own data in/out
// policies, §VI).
//
// Replication is delta-state: a per-peer delta buffer coalesces
// repeated writes to one key, sync turns cut the pending set into
// size-capped frames, and each frame is acknowledged so a peer that
// was down receives exactly the coalesced keys it missed when it
// heals — never a full-state reship.
type Store struct {
	port   simnet.Port
	spaces *space.Map
	engine *Engine
	data   *crdt.LWWMap
	peers  []simnet.NodeID

	interval  time.Duration
	ticker    *simnet.Ticker
	lastWrite time.Duration
	// syncDue is when the turn SyncWithin last armed falls due. A turn
	// is armed while now < syncDue; the time, not a flag the turn
	// clears, is what is kept, because a crash swallows the turn and a
	// flag would then stay set for good.
	syncDue time.Duration

	// buf tracks per-peer dirty keys with seq/ack bookkeeping.
	buf *crdt.DeltaBuffer
	// relay marks a redistribution hub: its frames carry the Relayed
	// flag so receivers do not forward hub-delivered entries again.
	relay bool
	// lastFrom records which peer delivered a key's current winning
	// entry, so a sync turn never echoes an entry back to its sender.
	lastFrom map[string]simnet.NodeID
	// wants holds this store's own interest declarations, per hub peer
	// (sorted key sets, re-sent every sync turn).
	wants map[simnet.NodeID][]string
	// peerInterest holds, on a hub, each peer's declared relay interest.
	// A peer with no declaration receives the full relay stream.
	peerInterest map[string]map[string]bool

	links map[simnet.NodeID]*LinkStats

	received int
	onApply  []func(Item, simnet.NodeID)
	// admitScratch is reused by handle for the per-message admitted
	// batch; its contents never outlive the call.
	admitScratch []crdt.Entry
	// sendScratch is reused by syncTo for frame assembly.
	sendScratch []crdt.Entry
	keyScratch  []string
}

// StoreConfig parameterizes NewStore.
type StoreConfig struct {
	// Peers are the stores this one synchronizes with.
	Peers []simnet.NodeID
	// SyncInterval is the anti-entropy period (default 1s).
	SyncInterval time.Duration
	// Engine governs flows; nil means an enforcing default privacy
	// engine.
	Engine *Engine
	// Relay marks a redistribution hub: entries received from one peer
	// are re-forwarded to the others (minus the origin replica), and
	// its frames carry the Relayed flag so receivers stop the chain
	// there.
	Relay bool
}

// maxFrameBytes caps one sync frame's encoded size; a turn with more
// pending data emits several frames so a single turn never floods a
// link.
const maxFrameBytes = 4096

// NewStore builds a store on port, placed in spaces (the node's own
// entity ID must be placed there for domain lookups).
func NewStore(port simnet.Port, spaces *space.Map, cfg StoreConfig) *Store {
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = time.Second
	}
	if cfg.Engine == nil {
		cfg.Engine = DefaultPrivacyEngine()
	}
	s := &Store{
		port:      port,
		spaces:    spaces,
		engine:    cfg.Engine,
		data:      crdt.NewLWWMap(crdt.ReplicaID(port.ID())),
		peers:     append([]simnet.NodeID(nil), cfg.Peers...),
		interval:  cfg.SyncInterval,
		lastWrite: -1,
		buf:       crdt.NewDeltaBuffer(),
		lastFrom:  make(map[string]simnet.NodeID),
		relay:     cfg.Relay,
		links:     make(map[simnet.NodeID]*LinkStats),
	}
	for _, p := range s.peers {
		s.buf.AddPeer(string(p))
	}
	port.OnMessage(s.handle)
	return s
}

// Start begins periodic synchronization.
func (s *Store) Start() {
	s.ticker = s.port.Every(s.interval, s.syncAll)
}

// Handler returns the store's network message handler. NewStore
// installs it on the port automatically; callers that need to share
// the port with other traffic can install their own dispatcher and
// delegate store-sync messages here.
func (s *Store) Handler() simnet.Handler { return s.handle }

// OnApply registers a callback invoked for every remote item admitted
// and applied locally (auditing, metrics).
func (s *Store) OnApply(fn func(Item, simnet.NodeID)) {
	s.onApply = append(s.onApply, fn)
}

// Put writes an item locally. The item's ProducedAt defaults to now;
// an item without lineage gains its "produced" hop here.
func (s *Store) Put(item Item) {
	if item.ProducedAt == 0 {
		item.ProducedAt = s.port.Now()
	}
	if len(item.Lineage) == 0 {
		item = item.WithHop(Hop{Node: string(s.port.ID()), At: s.port.Now(), Action: "produced"})
	}
	ts := s.port.Now()
	if ts <= s.lastWrite {
		ts = s.lastWrite + 1
	}
	s.lastWrite = ts
	if s.data.Set(item.Key, item, ts) {
		delete(s.lastFrom, item.Key)
		s.buf.DirtyAll(item.Key)
	}
}

// Lineage returns the provenance chain of the item currently stored
// under key.
func (s *Store) Lineage(key string) []Hop {
	item, ok := s.Get(key)
	if !ok {
		return nil
	}
	out := make([]Hop, len(item.Lineage))
	copy(out, item.Lineage)
	return out
}

// Get reads an item. Items past their label's TTL read as absent.
func (s *Store) Get(key string) (Item, bool) {
	v, ok := s.data.Get(key)
	if !ok {
		return Item{}, false
	}
	item, ok := v.(Item)
	if !ok {
		return Item{}, false
	}
	if ttl := item.Label.TTL; ttl > 0 && s.port.Now()-item.ProducedAt > ttl {
		return Item{}, false
	}
	return item, true
}

// Staleness returns how old the item's payload is (now − ProducedAt).
func (s *Store) Staleness(key string) (time.Duration, bool) {
	item, ok := s.Get(key)
	if !ok {
		return 0, false
	}
	return s.port.Now() - item.ProducedAt, true
}

// Keys returns the live keys, sorted.
func (s *Store) Keys() []string { return s.data.Keys() }

// Received returns how many remote entries were admitted and applied.
func (s *Store) Received() int { return s.received }

// link returns (creating) the stats row for one peer.
func (s *Store) link(peer simnet.NodeID) *LinkStats {
	ls, ok := s.links[peer]
	if !ok {
		ls = &LinkStats{}
		s.links[peer] = ls
	}
	return ls
}

// SyncStats returns the sync traffic counters summed over all links.
func (s *Store) SyncStats() LinkStats {
	var total LinkStats
	for _, ls := range s.links {
		total.Add(*ls)
	}
	return total
}

// PendingFor reports how many keys are queued for a peer — the
// coalesced backlog a healed peer would receive.
func (s *Store) PendingFor(peer simnet.NodeID) int {
	return s.buf.PendingCount(string(peer))
}

// domainOf resolves a node's administrative domain from the space map.
func (s *Store) domainOf(node simnet.NodeID) space.Domain {
	pl, ok := s.spaces.PlacementOf(string(node))
	if !ok {
		return space.Domain{}
	}
	d, _ := s.spaces.Domain(pl.Domain)
	return d
}

func (s *Store) syncAll() {
	for _, p := range s.peers {
		s.sendInterest(p)
		s.syncTo(p)
	}
}

// DeclareInterest tells a redistribution hub which keys this store
// consumes, so the hub relays only those instead of its full stream
// (the store's own writes still reach every peer directly, and the
// hub itself still receives everything). The set replaces any earlier
// declaration and is re-sent every sync turn so a lost declaration
// heals within one period. An empty non-nil set means "relay nothing
// to me"; a store that never declares gets the full stream.
func (s *Store) DeclareInterest(peer simnet.NodeID, keys []string) {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	if s.wants == nil {
		s.wants = make(map[simnet.NodeID][]string)
	}
	s.wants[peer] = sorted
	s.sendInterest(peer)
}

// sendInterest ships the store's current interest declaration to one
// peer, if it has one.
func (s *Store) sendInterest(peer simnet.NodeID) {
	keys, ok := s.wants[peer]
	if !ok {
		return
	}
	msg := storeInterest{Keys: keys}
	s.link(peer).BytesSent += uint64(msg.Size())
	s.port.Send(peer, msg)
}

// peerWants reports whether a relay should forward key to peer: yes
// unless the peer has declared an interest set that excludes it.
func (s *Store) peerWants(peer simnet.NodeID, key string) bool {
	in, ok := s.peerInterest[string(peer)]
	if !ok {
		return true
	}
	return in[key]
}

// SyncNow pushes pending deltas to all peers immediately, outside the
// periodic schedule — a counteraction a MAPE planner can take when it
// detects stale data.
func (s *Store) SyncNow() { s.syncAll() }

// SyncWithin arms one sync turn at most d from now, unless a turn
// armed earlier is still due: a burst of writes shares one turn. The
// turn is the same as the periodic one, which stays as anti-entropy
// and as the retransmit path for unacknowledged frames.
func (s *Store) SyncWithin(d time.Duration) {
	now := s.port.Now()
	if now < s.syncDue {
		return
	}
	s.syncDue = now + d
	s.port.After(d, s.syncAll)
}

// syncTo cuts the peer's pending delta into size-capped frames and
// ships them. Keys whose current winner came from the peer (echo), or
// that the peer itself produced, or that out-flow policy refuses, are
// dropped from the buffer instead of sent. Frames unacknowledged for
// longer than one retransmission timeout are requeued first, so loss
// means retransmission of the *current* coalesced entries, not a
// growing backlog — while frames whose ack is merely still in flight
// (an out-of-band SyncNow moments after the periodic turn) are not
// duplicated.
func (s *Store) syncTo(peer simnet.NodeID) {
	pk := string(peer)
	s.buf.Requeue(pk, s.port.Now()-s.interval)
	keys := s.buf.Pending(pk)
	if len(keys) == 0 {
		return
	}
	from := s.domainOf(s.port.ID())
	to := s.domainOf(peer)
	now := s.port.Now()

	entries := s.sendScratch[:0]
	batch := s.keyScratch[:0]
	bytes := frameOverhead
	flush := func() {
		if len(entries) == 0 {
			return
		}
		seq := s.buf.NextSeq(pk)
		msg := storeSyncMsg{Seq: seq, Relayed: s.relay, Entries: append([]crdt.Entry(nil), entries...)}
		s.buf.MarkSent(pk, seq, batch, now)
		ls := s.link(peer)
		ls.FramesSent++
		ls.EntriesSent += uint64(len(entries))
		ls.BytesSent += uint64(msg.Size())
		s.port.Send(peer, msg)
		entries = entries[:0]
		batch = batch[:0]
		bytes = frameOverhead
	}
	for _, k := range keys {
		e, ok := s.data.Entry(k)
		if !ok || e.Replica == crdt.ReplicaID(peer) || s.lastFrom[k] == peer {
			s.buf.Drop(pk, k)
			continue
		}
		item, ok := e.Value.(Item)
		if !ok {
			s.buf.Drop(pk, k)
			continue
		}
		if !s.engine.Admit(FlowContext{Item: item, From: from, To: to}, now) {
			// Policy refused the flow: the key leaves the buffer without
			// consuming a frame or an ack. A later write re-queues it for
			// re-evaluation.
			s.buf.Drop(pk, k)
			continue
		}
		sz := crdt.EntrySize(e)
		if len(entries) > 0 && bytes+sz > maxFrameBytes {
			flush()
		}
		entries = append(entries, e)
		batch = append(batch, k)
		bytes += sz
	}
	flush()
	s.sendScratch = entries[:0]
	s.keyScratch = batch[:0]
}

func (s *Store) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case storeSyncMsg:
		s.handleFrame(from, m)
	case storeSyncAck:
		if s.buf.Ack(string(from), m.Seq) {
			s.link(from).AcksIn++
		}
	case storeInterest:
		s.link(from).BytesIn += uint64(m.Size())
		prev := s.peerInterest[string(from)]
		set := make(map[string]bool, len(m.Keys))
		for _, k := range m.Keys {
			set[k] = true
			// Pre-seed newly declared keys the hub already holds: a
			// controller that just gained a zone gets its current state
			// on the next sync turn instead of waiting for the next
			// upstream write. Re-declarations of an unchanged set add no
			// keys, so the periodic interest refresh re-ships nothing.
			if s.relay && !prev[k] {
				if _, ok := s.data.Entry(k); ok {
					s.buf.Dirty(string(from), k)
				}
			}
		}
		if s.peerInterest == nil {
			s.peerInterest = make(map[string]map[string]bool)
		}
		s.peerInterest[string(from)] = set
	}
}

// handleFrame admits one delta frame and acknowledges it. The ack
// covers frame *receipt*: entries the in-flow policy rejects are
// refused here and counted, but they do not stall the sender's buffer
// — retransmitting into a policy wall forever would turn governance
// into a bandwidth leak.
func (s *Store) handleFrame(from simnet.NodeID, m storeSyncMsg) {
	ls := s.link(from)
	ls.FramesIn++
	ls.EntriesIn += uint64(len(m.Entries))
	ls.BytesIn += uint64(m.Size())
	fromDom := s.domainOf(from)
	toDom := s.domainOf(s.port.ID())
	now := s.port.Now()
	if cap(s.admitScratch) < len(m.Entries) {
		s.admitScratch = make([]crdt.Entry, 0, len(m.Entries))
	}
	admitted := s.admitScratch[:0]
	for _, e := range m.Entries {
		item, ok := e.Value.(Item)
		if !ok {
			continue
		}
		if s.engine.Admit(FlowContext{Item: item, From: fromDom, To: toDom}, now) {
			// Extend the provenance chain: the item has arrived here.
			// Entries that lose the LWW race are applied (and reported
			// to OnApply) unchanged: their value is discarded by Apply,
			// so re-boxing a hop-extended copy would be pure allocator
			// traffic — with all-to-all peering, most entries lose.
			if s.data.Wins(e) {
				e.Value = item.WithHop(Hop{Node: string(s.port.ID()), At: now, Action: "received"})
				s.lastFrom[e.Key] = from
				// Redistribution is the hub's job: only a relay store
				// forwards received wins onward (and never a win that a
				// hub already broadcast — a relayed frame stops the
				// chain). Non-relay stores ship their *local* writes to
				// every peer directly; re-forwarding remote wins around
				// the ring as well would flood every entry fanout-fold.
				if s.relay && !m.Relayed {
					for _, p := range s.peers {
						if p != from && s.peerWants(p, e.Key) {
							s.buf.Dirty(string(p), e.Key)
						}
					}
				}
			}
			admitted = append(admitted, e)
		}
	}
	s.admitScratch = admitted[:0]
	won := s.data.Apply(admitted)
	s.received += won
	if len(s.onApply) > 0 {
		for _, e := range admitted {
			if item, ok := e.Value.(Item); ok {
				for _, fn := range s.onApply {
					fn(item, from)
				}
			}
		}
	}
	s.port.Send(from, storeSyncAck{Seq: m.Seq})
}
