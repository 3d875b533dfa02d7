package crdt

import (
	"sort"
	"time"
)

// DeltaBuffer tracks, per peer, which keys have changed since that
// peer last acknowledged them — the sender side of a delta-state sync
// protocol (Almeida/Shoker/Baquero). Repeated writes to one key
// coalesce: the buffer records only that the key is dirty, and the
// caller exports the key's *current* entry at send time, so
// intermediate LWW versions never reach the wire. Frames carry a
// per-peer sequence number; the receiver acknowledges each frame, and
// an ack retires the frame. A key re-dirtied while its frame was in
// flight is already pending again, so it goes out once more whatever
// the ack says. Unacknowledged frames are requeued at a later sync
// turn, giving retransmit-until-acked under loss, and a peer that is
// down simply accumulates pending keys — on heal it receives exactly
// the coalesced set it missed, not a full-state reship.
//
// The buffer is keyed by opaque peer and key strings and holds no
// values, so it composes with any keyed CRDT (the LWW map here; the
// OR-set and counters ship their own join-decompositions, see
// DeltaSince on each type).
type DeltaBuffer struct {
	peers map[string]*peerBuffer
}

type peerBuffer struct {
	// pending is the set of dirty keys.
	pending map[string]struct{}
	// inFlight maps a sent frame's sequence number to the keys it
	// carried and its send time. Entries live until acked or requeued.
	inFlight map[uint64]inFlightFrame
	nextSeq  uint64
}

type inFlightFrame struct {
	at   time.Duration
	keys []string
}

// NewDeltaBuffer returns an empty buffer tracking the given peers.
func NewDeltaBuffer(peers ...string) *DeltaBuffer {
	b := &DeltaBuffer{peers: make(map[string]*peerBuffer, len(peers))}
	for _, p := range peers {
		b.AddPeer(p)
	}
	return b
}

// AddPeer starts tracking a peer; existing state is unaffected. Known
// peers are not reset.
func (b *DeltaBuffer) AddPeer(peer string) {
	if _, ok := b.peers[peer]; !ok {
		b.peers[peer] = &peerBuffer{
			pending:  make(map[string]struct{}),
			inFlight: make(map[uint64]inFlightFrame),
		}
	}
}

// Dirty marks key as changed for one peer. Repeated calls coalesce.
func (b *DeltaBuffer) Dirty(peer, key string) {
	if pb, ok := b.peers[peer]; ok {
		pb.pending[key] = struct{}{}
	}
}

// DirtyAll marks key as changed for every tracked peer.
func (b *DeltaBuffer) DirtyAll(key string) {
	for _, pb := range b.peers {
		pb.pending[key] = struct{}{}
	}
}

// Drop removes key from a peer's pending set (e.g. the key was
// filtered by policy, deleted, or originates at that peer). A later
// Dirty re-adds it.
func (b *DeltaBuffer) Drop(peer, key string) {
	if pb, ok := b.peers[peer]; ok {
		delete(pb.pending, key)
	}
}

// Requeue moves unacknowledged in-flight keys from frames sent at or
// before the cutoff back into the peer's pending set. Call at the
// start of a sync turn with a cutoff one retransmission timeout in the
// past: frames that were genuinely lost (or whose peer is down) get
// retransmitted, while frames whose ack is simply still in flight are
// left alone — an immediate SyncNow burst must not re-ship everything
// that was sent milliseconds ago.
func (b *DeltaBuffer) Requeue(peer string, before time.Duration) {
	pb, ok := b.peers[peer]
	if !ok {
		return
	}
	for seq, fr := range pb.inFlight {
		if fr.at > before {
			continue
		}
		for _, k := range fr.keys {
			pb.pending[k] = struct{}{}
		}
		delete(pb.inFlight, seq)
	}
}

// Pending returns the peer's dirty keys, sorted, so frame content is
// deterministic whatever the map iteration order.
func (b *DeltaBuffer) Pending(peer string) []string {
	pb, ok := b.peers[peer]
	if !ok || len(pb.pending) == 0 {
		return nil
	}
	out := make([]string, 0, len(pb.pending))
	for k := range pb.pending {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PendingCount reports how many keys are dirty for the peer.
func (b *DeltaBuffer) PendingCount(peer string) int {
	pb, ok := b.peers[peer]
	if !ok {
		return 0
	}
	return len(pb.pending)
}

// NextSeq allocates the next frame sequence number for the peer.
func (b *DeltaBuffer) NextSeq(peer string) uint64 {
	pb, ok := b.peers[peer]
	if !ok {
		return 0
	}
	pb.nextSeq++
	return pb.nextSeq
}

// MarkSent records that the keys went out to peer in frame seq at the
// given time and removes them from pending. They stay tracked
// in-flight until Ack (evicted) or Requeue (retransmitted). Keys that
// were not pending are not tracked; the frame keeps its own copy of
// the rest, so callers may reuse keys.
func (b *DeltaBuffer) MarkSent(peer string, seq uint64, keys []string, at time.Duration) {
	pb, ok := b.peers[peer]
	if !ok || len(keys) == 0 {
		return
	}
	sent := make([]string, 0, len(keys))
	for _, k := range keys {
		if _, dirty := pb.pending[k]; dirty {
			sent = append(sent, k)
			delete(pb.pending, k)
		}
	}
	if len(sent) > 0 {
		pb.inFlight[seq] = inFlightFrame{at: at, keys: sent}
	}
}

// Ack acknowledges frame seq from peer: its keys are confirmed
// delivered and evicted. Keys re-dirtied after the frame was cut are
// already pending again and stay queued.
// Duplicate or late acks are no-ops. Reports whether the seq was
// still tracked.
func (b *DeltaBuffer) Ack(peer string, seq uint64) bool {
	pb, ok := b.peers[peer]
	if !ok {
		return false
	}
	if _, tracked := pb.inFlight[seq]; !tracked {
		return false
	}
	delete(pb.inFlight, seq)
	return true
}
