package mape

import (
	"time"

	"repro/internal/crdt"
	"repro/internal/simnet"
)

// syncMsg carries a knowledge delta between loops.
type syncMsg struct {
	Entries []crdt.Entry
}

// Size reports the message's encoded wire size from real per-entry
// sizing (key + value payload + clock), matching the store sync path's
// accounting.
func (m syncMsg) Size() int { return 8 + crdt.EntriesSize(m.Entries) }

// RegisterWire registers the knowledge-sync message with a wire codec
// (e.g. realnet's datagram codec). The entry payload types ride on the
// dataflow/crdt registrations.
func RegisterWire(register func(any)) {
	register(syncMsg{})
}

// Syncer implements the paper's "information sharing" decentralization
// pattern (§V): each MAPE loop self-adapts locally but periodically
// shares its knowledge with peer loops, so that analysis and planning
// at the edge can use system-wide context without any central
// knowledge store. Deltas ride on the CRDT merge semantics of the
// knowledge base, so sharing is safe under partitions, message loss and
// re-delivery.
type Syncer struct {
	port     simnet.Port
	loop     *Loop
	peers    []simnet.NodeID
	interval time.Duration
	lastSent time.Duration
	// lastVer is the knowledge version at the previous share: a
	// quiescent loop (no new local writes or absorbed wins) skips the
	// export and the send entirely instead of re-sharing the boundary
	// entries every round.
	lastVer uint64
}

// NewSyncer wires knowledge sharing for loop over port with the given
// peers.
func NewSyncer(port simnet.Port, loop *Loop, peers []simnet.NodeID, interval time.Duration) *Syncer {
	if interval <= 0 {
		interval = time.Second
	}
	s := &Syncer{
		port:     port,
		loop:     loop,
		peers:    append([]simnet.NodeID(nil), peers...),
		interval: interval,
		lastSent: -1, // ship everything on the first round, including t=0 writes
	}
	port.OnMessage(s.handle)
	return s
}

// Start begins periodic delta exchange.
func (s *Syncer) Start() {
	s.port.Every(s.interval, s.share)
}

// ShareNow ships the pending delta immediately, outside the periodic
// cadence. Island rejoin calls it so the healed side sees the island's
// locally-accumulated knowledge before the next scheduled round.
func (s *Syncer) ShareNow() { s.share() }

func (s *Syncer) share() {
	k := s.loop.Knowledge()
	if k.Version() == s.lastVer {
		return // quiescent since the last share: nothing to export
	}
	s.lastVer = k.Version()
	delta := k.Delta(s.lastSent)
	if len(delta) == 0 {
		return
	}
	// Advance the watermark to just below the newest shipped entry:
	// boundary entries are re-sent once next round, which the CRDT
	// merge absorbs idempotently, and nothing written at the same
	// instant after this share can be skipped.
	s.lastSent = s.loop.Knowledge().MaxTimestamp() - 1
	for _, p := range s.peers {
		if p != s.port.ID() {
			s.port.Send(p, syncMsg{Entries: delta})
		}
	}
}

func (s *Syncer) handle(_ simnet.NodeID, msg simnet.Message) {
	m, ok := msg.(syncMsg)
	if !ok {
		return
	}
	s.loop.Knowledge().Absorb(m.Entries)
}
