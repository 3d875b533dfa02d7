// Package gossip implements SWIM-style decentralized membership: a
// randomized ping / ping-req failure detector with suspicion, refutation
// via incarnation numbers, and epidemic dissemination of membership
// updates piggybacked on probe traffic. The paper's roadmap makes
// "eliminating central points of failure by component coordination" a
// core challenge (§III) and decentralized coordination its own research
// direction (§V); membership — who is alive, learned without any
// central registry — is the base layer every decentralized facility in
// this repository builds on (edge coordination, orchestration,
// decentralized MAPE).
package gossip

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Status is a member's health as seen by the local failure detector.
type Status int

// Membership states, in escalation order.
const (
	StatusAlive Status = iota + 1
	StatusSuspect
	StatusDead
)

func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Member is a point-in-time view of one member.
type Member struct {
	ID          simnet.NodeID
	Status      Status
	Incarnation uint64
}

// Update is a disseminated membership claim.
type Update Member

// overrides implements SWIM's update precedence rules against the
// currently known (status, incarnation) of the same member. Only the
// member itself advances its incarnation (refutation, restart), so an
// Alive claim needs a strictly newer one to override even a Dead
// verdict: a stale Alive echo in a piggyback queue never undoes it.
func (u Update) overrides(cur Member) bool {
	switch u.Status {
	case StatusAlive:
		return u.Incarnation > cur.Incarnation
	case StatusSuspect:
		if cur.Status == StatusAlive {
			return u.Incarnation >= cur.Incarnation
		}
		return u.Incarnation > cur.Incarnation
	case StatusDead:
		return cur.Status != StatusDead && u.Incarnation >= cur.Incarnation
	default:
		return false
	}
}

// Config tunes the failure detector. Zero fields take defaults.
type Config struct {
	// ProbeInterval is the period of the probe loop. Anti-entropy —
	// a full push-pull state exchange with one random known member,
	// dead ones included, so a healed partition reconverges without
	// external reseeding — runs every ten of them (antiEntropyProbes).
	ProbeInterval time.Duration
	// ProbeTimeout bounds the wait for a direct ack before indirect
	// probing starts.
	ProbeTimeout time.Duration
	// SuspicionTimeout is how long a suspect has to refute before it is
	// declared dead.
	SuspicionTimeout time.Duration
}

const (
	// indirectProbes is the number of helpers asked to ping an
	// unresponsive member.
	indirectProbes = 3
	// retransmitMult scales how many times an update is piggybacked:
	// retransmitMult * ceil(log2(n+1)).
	retransmitMult = 3
	// maxPiggyback caps updates carried per message.
	maxPiggyback = 6
	// antiEntropyProbes is the anti-entropy period in probe intervals.
	antiEntropyProbes = 10
)

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 300 * time.Millisecond
	}
	if c.SuspicionTimeout == 0 {
		c.SuspicionTimeout = 3 * time.Second
	}
	return c
}

// Wire messages. Sizes approximate a compact binary encoding.

type pingMsg struct {
	Seq     uint64
	Updates []Update
}

type ackMsg struct {
	Seq     uint64
	Updates []Update
}

type pingReqMsg struct {
	Seq     uint64
	Origin  simnet.NodeID
	Target  simnet.NodeID
	Updates []Update
}

type joinMsg struct{}

type joinAckMsg struct {
	Members []Update
}

// syncMsg initiates push-pull anti-entropy: it carries the sender's
// full membership view; the receiver merges it and replies with its
// own full view (a joinAckMsg).
type syncMsg struct {
	Members []Update
}

// leaveMsg is a graceful departure announcement. Unlike ordinary
// traffic it must not count as evidence of life.
type leaveMsg struct {
	Update Update
}

// RegisterWire registers the protocol's message types with a wire
// codec (e.g. realnet's datagram codec). Call once before starting
// nodes that communicate over a real network.
func RegisterWire(register func(any)) {
	register(pingMsg{})
	register(ackMsg{})
	register(pingReqMsg{})
	register(joinMsg{})
	register(joinAckMsg{})
	register(syncMsg{})
	register(leaveMsg{})
}

func updatesSize(us []Update) int { return 24 * len(us) }

func (m pingMsg) Size() int    { return 16 + updatesSize(m.Updates) }
func (m ackMsg) Size() int     { return 16 + updatesSize(m.Updates) }
func (m pingReqMsg) Size() int { return 48 + updatesSize(m.Updates) }
func (m joinMsg) Size() int    { return 8 }
func (m joinAckMsg) Size() int { return 8 + updatesSize(m.Members) }
func (m syncMsg) Size() int    { return 8 + updatesSize(m.Members) }
func (m leaveMsg) Size() int   { return 32 }

// Envelope kinds for updates-free pings and acks — the steady-state
// probe traffic once membership has converged and the broadcast queue
// is drained. Bytes is the Size of pingMsg/ackMsg without Updates.
const (
	envPing uint16 = 1 // A=Seq
	envAck  uint16 = 2 // A=Seq
)

// memberState is the local bookkeeping for one member.
type memberState struct {
	Member
	suspectTimer *simnet.Timer
}

// broadcast is an update queued for piggybacking.
type broadcast struct {
	update    Update
	transmits int
}

// Protocol is one node's SWIM instance. Construct with New and call
// Start (optionally with seeds to join through).
type Protocol struct {
	ep  simnet.Port
	cfg Config

	incarnation uint64
	members     map[simnet.NodeID]*memberState
	// sorted holds exactly the values of members, in id order. It is
	// kept in order as members are discovered (and reset with the map
	// in onRecover), so every path that needs the members in a
	// seed-determined order reads it instead of sorting the map's keys.
	sorted []*memberState
	// queue holds the updates awaiting piggybacking. Between takes it is
	// two runs, each sorted by transmits: the head queue[:front], which
	// the last take carried, and the untouched rest. enqueue breaks that
	// shape and sets front to -1; the next take then sorts in full.
	queue []broadcast
	front int
	// scratch is a spare array for takes: sortQueue scatters into it
	// and trades it for the queue's, mergeHead copies the head into it.
	scratch    []broadcast
	probeOrder []simnet.NodeID
	probeIdx   int
	seqCounter uint64
	// pending acks: seq → callback(acked bool) resolution state
	acked    map[uint64]*simnet.Timer
	relaySeq map[uint64]relay // indirect probe relays
	onChange []func(Member)
	ticker   *simnet.Ticker
	aeTicker *simnet.Ticker
	started  bool
	left     bool
	seeds    []simnet.NodeID
	// joined is read off the loop (a readiness probe), so it is atomic.
	joined atomic.Bool

	bus *obs.Bus
	// probeSent tracks direct-probe departure times by seq, populated
	// only while the bus has subscribers so idle runs pay nothing.
	probeSent map[uint64]probeInfo
}

type probeInfo struct {
	target simnet.NodeID
	at     time.Duration
}

// relay remembers where to forward an indirect ack.
type relay struct {
	origin simnet.NodeID
	seq    uint64
}

// New constructs a protocol instance bound to ep. The instance starts
// knowing only itself.
func New(ep simnet.Port, cfg Config) *Protocol {
	p := &Protocol{
		ep:       ep,
		cfg:      cfg.withDefaults(),
		members:  make(map[simnet.NodeID]*memberState),
		acked:    make(map[uint64]*simnet.Timer),
		relaySeq: make(map[uint64]relay),
	}
	p.addMember(&memberState{Member: Member{ID: ep.ID(), Status: StatusAlive}})
	ep.OnMessage(p.handle)
	ep.OnEnvelope(p.handleEnv)
	ep.OnUp(p.onRecover)
	return p
}

// OnChange registers a callback invoked whenever a member's status
// changes (including first discovery).
func (p *Protocol) OnChange(fn func(Member)) {
	p.onChange = append(p.onChange, fn)
}

// SetBus attaches an observability bus. Probe round-trips are published
// as "gossip.probe" spans, status transitions as "gossip.<status>"
// instants, and graceful departures as "gossip.leave". A nil bus (the
// default) keeps the protocol silent.
func (p *Protocol) SetBus(bus *obs.Bus) { p.bus = bus }

// Start begins probing. Seeds, if any, are adopted as initial members
// and contacted for a full state exchange. Adopting them up front
// matters on real networks: if the join datagram is lost, the probe
// loop and anti-entropy still reach the seed, so a cold-start race
// cannot isolate the node permanently.
func (p *Protocol) Start(seeds ...simnet.NodeID) {
	p.seeds = append([]simnet.NodeID(nil), seeds...)
	p.started = true
	p.join()
	p.ticker = p.ep.Every(p.cfg.ProbeInterval, p.probe)
	p.aeTicker = p.ep.Every(antiEntropyProbes*p.cfg.ProbeInterval, p.antiEntropy)
}

// join adopts every seed but this node as alive and asks it for a full
// state exchange. Joined holds only if there was no seed to ask.
func (p *Protocol) join() {
	joined := true
	for _, s := range p.seeds {
		if s != p.ep.ID() {
			joined = false
			p.applyUpdate(Update{ID: s, Status: StatusAlive})
			p.ep.Send(s, joinMsg{})
		}
	}
	p.joined.Store(joined)
}

// Joined reports whether the node has heard from its cluster: true at
// Start for a node with no seeds but itself, otherwise from the first
// answer any peer gives it — a join ack (the seed's, or a sync reply)
// or an ack to one of its pings. That is confirmed two-way contact,
// not the alive status Start assumes for its seeds. A seeded node's
// recovery from a crash rejoins through its seeds, so Joined is false
// again until the first answer after the restart. Safe to call from any
// goroutine.
func (p *Protocol) Joined() bool { return p.joined.Load() }

// heard records an answer from a peer for Joined. The load keeps the
// steady state, where every ack lands here, a plain read.
func (p *Protocol) heard() {
	if !p.joined.Load() {
		p.joined.Store(true)
	}
}

// Leave announces this node's departure before stopping: a dead claim
// about itself at the current incarnation is broadcast directly to all
// known alive members, so peers remove it immediately instead of
// paying the probe + suspicion timeout. The graceful counterpart of a
// crash.
func (p *Protocol) Leave() {
	dead := Update{ID: p.ep.ID(), Status: StatusDead, Incarnation: p.incarnation}
	msg := leaveMsg{Update: dead}
	// Broadcast to every non-dead member, in sorted order: a member the
	// leaver falsely suspects must still hear the farewell directly, and
	// iterating the map raw would make send order (and thus per-target
	// latency jitter) depend on map hashing rather than on the seed.
	for _, ms := range p.sorted {
		if p.probeable(ms) {
			p.ep.Send(ms.ID, msg)
		}
	}
	self := p.members[p.ep.ID()]
	self.Status = StatusDead
	p.left = true
	p.bus.Emit("gossip.leave", string(p.ep.ID()), 0, 0, "graceful leave at incarnation %d", p.incarnation)
	p.Stop()
}

// Stop halts the probe loop. The instance keeps answering pings (a
// stopped detector is still a reachable node) until its node goes down.
func (p *Protocol) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
		p.ticker = nil
	}
	if p.aeTicker != nil {
		p.aeTicker.Stop()
		p.aeTicker = nil
	}
}

// antiEntropy runs one push-pull exchange with a random known member.
// Dead members are eligible targets on purpose: a member wrongly
// declared dead during a partition answers the sync after the heal,
// and the refutation machinery reconverges both sides without any
// external reseeding.
func (p *Protocol) antiEntropy() {
	others := len(p.sorted) - 1
	if others == 0 {
		return
	}
	// One draw over the sorted non-self ids: index past self's slot.
	k := p.ep.Rand().Intn(others)
	if self, _ := p.memberIndex(p.ep.ID()); k >= self {
		k++
	}
	p.ep.Send(p.sorted[k].ID, syncMsg{Members: p.fullState()})
}

// onRecover runs when the underlying node comes back up after a crash:
// volatile protocol state is gone, the incarnation advances so stale
// death claims can be refuted, and the node rejoins through its seeds.
func (p *Protocol) onRecover() {
	if !p.started {
		return
	}
	p.left = false // a restarted node rejoins deliberately
	p.incarnation++
	self := p.members[p.ep.ID()]
	for _, ms := range p.sorted {
		if ms != self {
			stopSuspect(ms)
			delete(p.members, ms.ID)
		}
	}
	p.sorted = []*memberState{self}
	self.Status = StatusAlive
	self.Incarnation = p.incarnation
	p.queue = nil
	p.probeOrder = nil
	p.probeIdx = 0
	p.enqueue(Update{ID: p.ep.ID(), Status: StatusAlive, Incarnation: p.incarnation})
	p.join()
}

func stopSuspect(ms *memberState) {
	if ms.suspectTimer != nil {
		ms.suspectTimer.Stop()
		ms.suspectTimer = nil
	}
}

// memberIndex is the slot of id in p.sorted, or the slot it would be
// inserted at when it is not a member.
func (p *Protocol) memberIndex(id simnet.NodeID) (int, bool) {
	return slices.BinarySearchFunc(p.sorted, id, func(ms *memberState, id simnet.NodeID) int {
		return strings.Compare(string(ms.ID), string(id))
	})
}

// addMember records a newly discovered member in the map and at its
// place in the sorted slice.
func (p *Protocol) addMember(ms *memberState) {
	p.members[ms.ID] = ms
	i, _ := p.memberIndex(ms.ID)
	p.sorted = slices.Insert(p.sorted, i, ms)
}

// Members returns a snapshot of all known members (including self),
// sorted by ID.
func (p *Protocol) Members() []Member {
	out := make([]Member, len(p.sorted))
	for i, ms := range p.sorted {
		out[i] = ms.Member
	}
	return out
}

// Alive returns the IDs of members currently believed alive (including
// self), sorted.
func (p *Protocol) Alive() []simnet.NodeID {
	var out []simnet.NodeID
	for _, ms := range p.sorted {
		if ms.Status == StatusAlive {
			out = append(out, ms.ID)
		}
	}
	return out
}

// IsAlive reports whether a single member is currently believed
// alive. O(1): orchestration filters hundreds of host candidates per
// placement round, and building the sorted Members snapshot for each
// lookup dominates city-scale runs.
func (p *Protocol) IsAlive(id simnet.NodeID) bool {
	ms, ok := p.members[id]
	return ok && ms.Status == StatusAlive
}

// AliveCount returns the number of members believed alive.
func (p *Protocol) AliveCount() int {
	n := 0
	for _, ms := range p.members {
		if ms.Status == StatusAlive {
			n++
		}
	}
	return n
}

// --- probing ---

func (p *Protocol) probe() {
	target, ok := p.nextProbeTarget()
	if !ok {
		return
	}
	seq := p.nextSeq()
	p.sendPing(target, seq)
	if p.bus.Active() {
		if p.probeSent == nil {
			p.probeSent = make(map[uint64]probeInfo)
		}
		p.probeSent[seq] = probeInfo{target: target, at: p.bus.Now()}
	}
	p.acked[seq] = p.ep.After(p.cfg.ProbeTimeout, func() {
		delete(p.acked, seq)
		delete(p.probeSent, seq)
		p.indirectProbe(target)
	})
}

func (p *Protocol) indirectProbe(target simnet.NodeID) {
	helpers := p.randomAliveExcept(indirectProbes, target)
	seq := p.nextSeq()
	for _, h := range helpers {
		p.ep.Send(h, pingReqMsg{Seq: seq, Origin: p.ep.ID(), Target: target, Updates: p.takePiggyback()})
	}
	remaining := p.cfg.ProbeInterval - p.cfg.ProbeTimeout
	if remaining <= 0 {
		remaining = p.cfg.ProbeTimeout
	}
	p.acked[seq] = p.ep.After(remaining, func() {
		delete(p.acked, seq)
		p.suspect(target)
	})
}

// probeable reports whether a member is a probe target: anyone but self
// not yet declared dead.
func (p *Protocol) probeable(ms *memberState) bool {
	return ms.ID != p.ep.ID() && ms.Status != StatusDead
}

// anyProbeable stops at the first target found, so only a node that
// believes everyone else dead walks the whole slice.
func (p *Protocol) anyProbeable() bool {
	for _, ms := range p.sorted {
		if p.probeable(ms) {
			return true
		}
	}
	return false
}

func (p *Protocol) nextProbeTarget() (simnet.NodeID, bool) {
	if !p.anyProbeable() {
		return "", false
	}
	for tries := 0; tries < len(p.members)+1; tries++ {
		if p.probeIdx >= len(p.probeOrder) {
			p.reshuffleProbeOrder()
			if len(p.probeOrder) == 0 {
				return "", false
			}
		}
		id := p.probeOrder[p.probeIdx]
		p.probeIdx++
		if ms, ok := p.members[id]; ok && p.probeable(ms) {
			return id, true
		}
	}
	return "", false
}

func (p *Protocol) reshuffleProbeOrder() {
	p.probeOrder = p.probeOrder[:0]
	for _, ms := range p.sorted {
		if p.probeable(ms) {
			p.probeOrder = append(p.probeOrder, ms.ID)
		}
	}
	p.ep.Rand().Shuffle(len(p.probeOrder), func(i, j int) {
		p.probeOrder[i], p.probeOrder[j] = p.probeOrder[j], p.probeOrder[i]
	})
	p.probeIdx = 0
}

func (p *Protocol) randomAliveExcept(n int, except simnet.NodeID) []simnet.NodeID {
	var pool []simnet.NodeID
	for _, ms := range p.sorted {
		if ms.ID != p.ep.ID() && ms.ID != except && ms.Status == StatusAlive {
			pool = append(pool, ms.ID)
		}
	}
	p.ep.Rand().Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > n {
		pool = pool[:n]
	}
	return pool
}

func (p *Protocol) nextSeq() uint64 {
	p.seqCounter++
	return p.seqCounter
}

// --- state transitions ---

func (p *Protocol) suspect(id simnet.NodeID) {
	ms, ok := p.members[id]
	if !ok || ms.Status != StatusAlive {
		return
	}
	p.applyUpdate(Update{ID: id, Status: StatusSuspect, Incarnation: ms.Incarnation})
}

func (p *Protocol) notify(m Member) {
	if p.bus.Active() {
		p.bus.Emit("gossip."+m.Status.String(), string(p.ep.ID()), 0, 0,
			"member %s incarnation %d", m.ID, m.Incarnation)
	}
	for _, fn := range p.onChange {
		fn(m)
	}
}

func (p *Protocol) enqueue(u Update) {
	// A fresh claim has no transmits, wherever it lands.
	p.front = -1
	// Replace any queued update for the same member: the newest claim
	// supersedes older ones.
	for i := range p.queue {
		if p.queue[i].update.ID == u.ID {
			p.queue[i] = broadcast{update: u}
			return
		}
	}
	p.queue = append(p.queue, broadcast{update: u})
}

// retransmitLimit never falls while the queue holds entries: members
// are only ever added, except by onRecover, which empties the queue.
func (p *Protocol) retransmitLimit() int {
	// bits.Len(n) is ceil(log2(n+1)) for every n >= 0.
	return retransmitMult * bits.Len(uint(len(p.members)))
}

// sortQueue orders the queue by transmits, least first, keeping the
// queue order among equals. A stable sort has one result, so this
// counting sort over the small transmit counts yields the queue any
// other stable sort would; a queue already in order is left alone.
func (p *Protocol) sortQueue() {
	q := p.queue
	most, inOrder := 0, true
	for i := range q {
		if i > 0 && q[i].transmits < q[i-1].transmits {
			inOrder = false
		}
		most = max(most, q[i].transmits)
	}
	if inOrder {
		return
	}
	// next[t] becomes the slot of the next broadcast with t transmits.
	var small [64]int
	next := small[:]
	if most >= len(next) {
		next = make([]int, most+1)
	}
	for i := range q {
		next[q[i].transmits]++
	}
	slot := 0
	for t, n := range next[:most+1] {
		next[t] = slot
		slot += n
	}
	// Scatter into the scratch array, which then becomes the queue.
	sorted := slices.Grow(p.scratch[:0], len(q))[:len(q)]
	for i := range q {
		b := &q[i]
		sorted[next[b.transmits]] = *b
		next[b.transmits]++
	}
	p.queue, p.scratch = sorted, q[:0]
}

// mergeHead merges the head run into the rest, ties going to the head.
// The head precedes the rest in queue order, so this is the queue a
// stable sort by transmits would produce, at the cost of moving the
// rest entries that now sort before the head's last entry.
func (p *Protocol) mergeHead() {
	head := append(p.scratch[:0], p.queue[:p.front]...)
	p.scratch = head
	q, w, r := p.queue, 0, p.front
	for _, h := range head {
		k := r
		for k < len(q) && q[k].transmits < h.transmits {
			k++
		}
		w += copy(q[w:], q[r:k])
		r = k
		q[w] = h
		w++
	}
}

// takePiggyback selects up to maxPiggyback least-transmitted updates and
// accounts the transmission.
func (p *Protocol) takePiggyback() []Update {
	if len(p.queue) == 0 {
		return nil
	}
	if p.front < 0 {
		p.sortQueue()
	} else {
		p.mergeHead()
	}
	n := min(len(p.queue), maxPiggyback)
	if n <= 0 {
		p.front = 0
		return nil
	}
	// The updates travel in a message that owns them: a fresh slice per
	// call, sized once.
	out := make([]Update, n)
	// Only the entries taken now can reach the limit: the rest kept
	// their counts, and the limit has not fallen since they were queued.
	limit := p.retransmitLimit()
	kept := 0
	for i := range out {
		b := &p.queue[i]
		out[i] = b.update
		b.transmits++
		if b.transmits < limit {
			if kept != i {
				p.queue[kept] = *b
			}
			kept++
		}
	}
	if kept < n {
		p.queue = append(p.queue[:kept], p.queue[n:]...)
	}
	p.front = kept
	return out
}

// applyUpdate merges a membership claim into local state, refuting
// claims about self and disseminating accepted changes.
func (p *Protocol) applyUpdate(u Update) {
	// A suspect or dead claim at the top incarnation could never be
	// refuted: the refutation would wrap to 0 and lose everywhere.
	// Honest members never get near it, so no one accepts it.
	if u.Status != StatusAlive && u.Incarnation == math.MaxUint64 {
		return
	}
	if u.ID == p.ep.ID() {
		// Self-refutation: someone thinks we are suspect/dead. A node
		// that deliberately left does not refute its own death claim.
		if p.left {
			return
		}
		if u.Status != StatusAlive && u.Incarnation >= p.incarnation {
			p.incarnation = u.Incarnation + 1
			self := p.members[p.ep.ID()]
			self.Incarnation = p.incarnation
			self.Status = StatusAlive
			p.enqueue(Update{ID: p.ep.ID(), Status: StatusAlive, Incarnation: p.incarnation})
		}
		return
	}
	ms, known := p.members[u.ID]
	if !known {
		if u.Status == StatusDead {
			return // don't learn already-dead strangers
		}
		ms = &memberState{Member: Member{ID: u.ID, Status: u.Status, Incarnation: u.Incarnation}}
		p.addMember(ms)
		p.enqueue(u)
		if u.Status == StatusSuspect {
			p.armSuspicion(ms)
		}
		p.notify(ms.Member)
		return
	}
	if !u.overrides(ms.Member) {
		return
	}
	prev := ms.Status
	ms.Status = u.Status
	ms.Incarnation = u.Incarnation
	switch u.Status {
	case StatusAlive:
		stopSuspect(ms)
	case StatusSuspect:
		if prev != StatusSuspect {
			p.armSuspicion(ms)
		}
	case StatusDead:
		stopSuspect(ms)
	}
	p.enqueue(u)
	if prev != u.Status {
		p.notify(ms.Member)
	}
}

func (p *Protocol) armSuspicion(ms *memberState) {
	stopSuspect(ms)
	id, inc := ms.ID, ms.Incarnation
	ms.suspectTimer = p.ep.After(p.cfg.SuspicionTimeout, func() {
		cur, ok := p.members[id]
		if !ok || cur.Status != StatusSuspect || cur.Incarnation != inc {
			return
		}
		p.applyUpdate(Update{ID: id, Status: StatusDead, Incarnation: inc})
	})
}

// --- message handling ---

func (p *Protocol) handle(from simnet.NodeID, msg simnet.Message) {
	// A node that left gracefully goes silent: answering pings or syncs
	// would count as evidence of life on peers and resurrect the dead
	// claim it just broadcast. (A restart clears left via onRecover.)
	if p.left {
		return
	}
	switch m := msg.(type) {
	case pingMsg:
		p.onPing(from, m.Seq, m.Updates)
	case ackMsg:
		p.onAck(from, m.Seq, m.Updates)
	case pingReqMsg:
		p.applyAll(m.Updates)
		seq := p.nextSeq()
		p.relaySeq[seq] = relay{origin: m.Origin, seq: m.Seq}
		p.sendPing(m.Target, seq)
		// Garbage-collect the relay slot if the target never acks.
		p.ep.After(p.cfg.ProbeInterval, func() { delete(p.relaySeq, seq) })
	case joinMsg:
		p.applyUpdate(Update{ID: from, Status: StatusAlive, Incarnation: 0})
		p.ep.Send(from, joinAckMsg{Members: p.fullState()})
	case joinAckMsg:
		p.heard()
		p.applyAll(m.Members)
	case syncMsg:
		p.applyAll(m.Members)
		p.ep.Send(from, joinAckMsg{Members: p.fullState()})
	case leaveMsg:
		p.applyUpdate(m.Update)
	}
}

// onPing processes a direct probe (boxed or envelope path).
func (p *Protocol) onPing(from simnet.NodeID, seq uint64, updates []Update) {
	p.applyAll(updates)
	// Seeing traffic from a member is evidence of life.
	p.applyUpdate(Update{ID: from, Status: StatusAlive, Incarnation: incOf(p, from)})
	p.sendAck(from, seq)
}

// onAck settles a pending probe (boxed or envelope path).
func (p *Protocol) onAck(from simnet.NodeID, seq uint64, updates []Update) {
	p.heard()
	p.applyAll(updates)
	p.applyUpdate(Update{ID: from, Status: StatusAlive, Incarnation: incOf(p, from)})
	if t, ok := p.acked[seq]; ok {
		t.Stop()
		delete(p.acked, seq)
	}
	if info, ok := p.probeSent[seq]; ok {
		delete(p.probeSent, seq)
		p.bus.Publish(obs.Event{
			At: info.at, Dur: p.bus.Now() - info.at,
			Kind: "gossip.probe", Node: string(p.ep.ID()),
			Detail: "probe " + string(info.target),
		})
	}
	if r, ok := p.relaySeq[seq]; ok {
		delete(p.relaySeq, seq)
		p.sendAck(r.origin, r.seq)
	}
}

// handleEnv routes inline-envelope pings and acks, which by
// construction carry no piggybacked updates.
func (p *Protocol) handleEnv(from simnet.NodeID, e *simnet.Envelope) {
	if p.left {
		return
	}
	switch e.Kind {
	case envPing:
		p.onPing(from, e.A, nil)
	case envAck:
		p.onAck(from, e.A, nil)
	}
}

// sendPing transmits a probe carrying any pending piggyback updates;
// with none pending it travels as an envelope.
func (p *Protocol) sendPing(to simnet.NodeID, seq uint64) {
	ups := p.takePiggyback()
	if ups == nil {
		p.ep.SendEnvelope(to, simnet.Envelope{Kind: envPing, A: seq, Bytes: 16})
		return
	}
	p.ep.Send(to, pingMsg{Seq: seq, Updates: ups})
}

// sendAck mirrors sendPing for acknowledgements.
func (p *Protocol) sendAck(to simnet.NodeID, seq uint64) {
	ups := p.takePiggyback()
	if ups == nil {
		p.ep.SendEnvelope(to, simnet.Envelope{Kind: envAck, A: seq, Bytes: 16})
		return
	}
	p.ep.Send(to, ackMsg{Seq: seq, Updates: ups})
}

func incOf(p *Protocol, id simnet.NodeID) uint64 {
	if ms, ok := p.members[id]; ok {
		return ms.Incarnation
	}
	return 0
}

func (p *Protocol) applyAll(us []Update) {
	for _, u := range us {
		p.applyUpdate(u)
	}
}

// fullState is the whole membership view in id order, in a slice the
// message carrying it owns.
func (p *Protocol) fullState() []Update {
	out := make([]Update, len(p.sorted))
	for i, ms := range p.sorted {
		out[i] = Update(ms.Member)
	}
	return out
}
