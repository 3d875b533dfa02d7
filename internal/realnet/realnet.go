// Package realnet runs the repository's protocol implementations over
// a real network: a Node is a simnet.Port backed by a UDP socket and
// the wall clock instead of the simulator. Protocol state machines are
// written single-threaded; realnet preserves that contract by running
// every callback — incoming datagram, posted function, timer fire, tick
// — on one loop goroutine (loop.go). A standalone Node owns its loop; a
// serialized Cluster shares one loop among all its nodes, under the
// world lock, so a live city of hundreds of nodes runs its callbacks
// and timers on one goroutine beside one socket reader per node. Timers
// and tickers are entries in the loop's heap, not goroutines or runtime
// timers of their own. The exact same gossip, consensus and data-plane
// code that runs deterministically in the simulator thus also runs on
// real infrastructure. Faults port too: Node.SetDown mirrors simnet's
// crashed-node semantics, every node carries a blocked-peer set (group
// partitions enforce bidirectional drops at both the sender and the
// receiver) and a per-link shaper (probabilistic loss from a PRNG
// seeded deterministically per link; added latency through the node's
// one delay line, a heap of packets in flight that is FIFO per link and
// drained by one goroutine with one timer, started by the node's first
// delayed packet — so shaping costs memory per packet in flight, not
// per link). Cluster coordinates those per-node controls across a node
// set with simnet's exact semantics and is a fault.World, so the
// injector that replays a fault.Schedule (e.g. a committed chaos
// counterexample) on the simulator replays it on live sockets.
//
// Wire format: a datagram-native binary codec (codec.go). Protocol
// packages register their message types via their RegisterWire
// functions before nodes start (simnet.Envelope, which every Port
// carries, is built in); registration compiles, once per type, a
// plan over the type's exported fields (bool, integers, floats,
// strings, []byte, slices, maps, structs, and interface fields carrying
// a built-in scalar or another registered type). A datagram is
// [version byte][From][type tag][fields…], the tag a 32-bit hash of the
// type's name: nothing on the wire describes a type and every datagram
// decodes on its own, so loss, reordering, a restarted peer and separate
// processes need no stream state and no handshake. What cannot be
// carried (an unsupported kind, a recursive type, two names with one
// tag) panics at registration; what arrives broken (unknown version or
// tag, a length past the datagram's end, interfaces nested too deep,
// trailing bytes) is a decode error, counted in NetStats.Malformed.
package realnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simnet"
)

// maxDatagram bounds encoded message size.
const maxDatagram = 64 * 1024

// sendBufs recycles the buffers Send encodes into; a datagram's bytes
// are dead once the socket write returns.
var sendBufs = sync.Pool{New: func() any { return new([]byte) }}

// shapeQueueCap bounds how many packets of one shaped link may wait in
// the node's delay line at once: a send that finds shapeQueueCap of its
// link's packets already waiting drops (counted in Dropped), the
// overload behaviour of a congested real link.
const shapeQueueCap = 4096

// NetStats counts one node's datagram-level traffic and the pressure
// the fault machinery put on it. Dropped counts packets removed by
// partitions, shaper loss, delay-queue overflow, and delayed packets
// whose link was cut before delivery — not sends refused because the
// node itself was down. Malformed counts arrivals the codec refused:
// a decode error, an unknown version or type tag, trailing bytes.
type NetStats struct {
	Sent      int64 // datagrams written to the socket
	SentBytes int64 // bytes written to the socket
	Received  int64 // datagrams delivered to the handler
	Dropped   int64 // datagrams dropped by partition/loss/overflow
	Delayed   int64 // datagrams routed through a delay queue
	Shaped    int64 // datagrams that traversed a shaped link
	Malformed int64 // datagrams received but undecodable
}

type netCounters struct {
	sent      atomic.Int64
	sentBytes atomic.Int64
	received  atomic.Int64
	dropped   atomic.Int64
	delayed   atomic.Int64
	shaped    atomic.Int64
	malformed atomic.Int64
}

// delayedPacket is one encoded datagram waiting in the node's delay
// line.
type delayedPacket struct {
	due  time.Time
	seq  uint64 // send order, breaking ties between equal due times
	data []byte
	addr *net.UDPAddr
	link *linkShape
}

func (p *delayedPacket) before(o *delayedPacket) bool {
	if !p.due.Equal(o.due) {
		return p.due.Before(o.due)
	}
	return p.seq < o.seq
}

// delayLine is a node's one queue of packets waiting out a shaped
// link's latency: a min-heap on (due, seq), grown on demand. Guarded by
// Node.mu.
type delayLine []delayedPacket

func (q *delayLine) push(p delayedPacket) {
	h := append(*q, p)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(&h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	*q = h
}

func (q *delayLine) pop() delayedPacket {
	h := *q
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h[last] = delayedPacket{} // the line keeps no sent bytes alive
	h = h[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && h[r].before(&h[m]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// linkShape is the fault-injected state of one outgoing link: added
// latency (virtual time; scaled to the wall clock at send) and
// probabilistic loss drawn from a per-link deterministic PRNG. Its
// delayed packets wait in the node's delay line; lastDue keeps them in
// FIFO order. All fields are guarded by Node.mu.
type linkShape struct {
	to      simnet.NodeID
	latency time.Duration
	loss    float64
	rng     *rand.Rand
	lastDue time.Time // due time of the link's latest delayed packet
	queued  int       // the link's packets waiting in the delay line
}

// Node is one real-network protocol host. Construct with NewNode, add
// peers, install protocols (they call OnMessage/Every through the Port
// interface), then Run. Close stops the socket and, on a node that owns
// its loop, the loop.
type Node struct {
	id      simnet.NodeID
	conn    *net.UDPConn
	rng     *rand.Rand
	scale   float64 // wall seconds per virtual second (default 1)
	netSeed int64   // base seed for per-link loss PRNG streams
	loop    *loop   // runs the node's callbacks and timers
	ownLoop bool    // false when a serialized Cluster shares its loop

	mu      sync.Mutex
	start   time.Time
	peers   map[simnet.NodeID]*net.UDPAddr
	handler simnet.Handler
	envH    simnet.EnvelopeHandler
	closed  bool
	down    bool
	onUp    []func()
	onDown  []func()
	blocked map[simnet.NodeID]bool
	shapes  map[simnet.NodeID]*linkShape
	line    delayLine
	lineSeq uint64
	wake    chan struct{} // nudges the drain goroutine; nil until it starts

	// known maps a cluster member's ID bytes to its NodeID, so that a
	// datagram from a member decodes without allocating the sender's
	// name. Cluster.Start sets it before the read loop starts, which
	// reads it without the lock; nil on a node outside a Cluster.
	known map[string]simnet.NodeID

	stat netCounters

	done chan struct{}
	wg   sync.WaitGroup
}

var _ simnet.Port = (*Node)(nil)

// NewNode binds a UDP socket. bind may be ":0" for an ephemeral port;
// Addr reports the actual address. The node's random stream is seeded
// from the wall clock; Cluster nodes get deterministic seeds instead.
func NewNode(id simnet.NodeID, bind string) (*Node, error) {
	return newNode(id, bind, time.Now().UnixNano(), 0, nil)
}

// newNode binds the socket of a node whose random stream starts at
// seed and whose per-link loss streams derive from netSeed. The node
// runs on shared when it is not nil, and on a loop of its own otherwise.
func newNode(id simnet.NodeID, bind string, seed, netSeed int64, shared *loop) (*Node, error) {
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("realnet: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("realnet: listen %q: %w", bind, err)
	}
	// Large clusters burst hard on loopback (hundreds of nodes sharing
	// one machine); grow the kernel buffers so those bursts queue
	// instead of dropping. Best-effort: the OS clamps to its limits.
	_ = conn.SetReadBuffer(1 << 20)
	_ = conn.SetWriteBuffer(1 << 20)
	l := shared
	if l == nil {
		l = newLoop(nil, 1024)
	}
	return &Node{
		id:      id,
		conn:    conn,
		rng:     simnet.NewStream(seed),
		scale:   1,
		netSeed: netSeed,
		start:   time.Now(),
		peers:   make(map[simnet.NodeID]*net.UDPAddr),
		blocked: make(map[simnet.NodeID]bool),
		shapes:  make(map[simnet.NodeID]*linkShape),
		loop:    l,
		ownLoop: shared == nil,
		done:    make(chan struct{}),
	}, nil
}

// SetTimeScale compresses (or stretches) the node's clock: one virtual
// second occupies scale wall seconds. Now reports virtual time;
// After/Every and shaper latencies convert virtual durations to wall
// delays, so protocol code written against virtual intervals runs
// unchanged at any compression. Call before Run; values <= 0 mean 1.
func (n *Node) SetTimeScale(scale float64) {
	if scale <= 0 {
		scale = 1
	}
	n.scale = scale
}

// resetClock restarts the node's virtual clock at zero. The cluster
// harness calls it right before Run so every node's Now and the
// harness's own clock share one epoch.
func (n *Node) resetClock() {
	n.mu.Lock()
	n.start = time.Now()
	n.mu.Unlock()
}

// wall converts a virtual duration to a wall-clock delay.
func (n *Node) wall(d time.Duration) time.Duration {
	if n.scale == 1 {
		return d
	}
	return time.Duration(float64(d) * n.scale)
}

// NetStats returns a snapshot of the node's traffic counters.
func (n *Node) NetStats() NetStats {
	return NetStats{
		Sent:      n.stat.sent.Load(),
		SentBytes: n.stat.sentBytes.Load(),
		Received:  n.stat.received.Load(),
		Dropped:   n.stat.dropped.Load(),
		Delayed:   n.stat.delayed.Load(),
		Shaped:    n.stat.shaped.Load(),
		Malformed: n.stat.malformed.Load(),
	}
}

// Addr returns the bound UDP address.
func (n *Node) Addr() string { return n.conn.LocalAddr().String() }

// AddPeer registers a peer's address.
func (n *Node) AddPeer(id simnet.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("realnet: resolve peer %q: %w", addr, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[id] = ua
	return nil
}

// Run starts the reader goroutine and, on a node that owns its loop,
// the loop goroutine. Call after the protocols are installed.
func (n *Node) Run() {
	n.wg.Add(1)
	go n.readLoop()
	if n.ownLoop {
		n.loop.start()
	}
}

// Close shuts the node down and waits for its goroutines to exit. A
// shared loop drops the node's events and timers from then on.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.done)
	_ = n.conn.Close()
	if n.ownLoop {
		n.loop.stop()
	}
	n.wg.Wait()
}

func (n *Node) readLoop() {
	defer n.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		sz, _, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		from, msg, err := wire.decodeDatagram(buf[:sz], n.known)
		if err != nil {
			n.stat.malformed.Add(1)
			continue
		}
		n.enqueue(event{node: n, from: from, msg: msg})
	}
}

// receive hands a datagram to its handler on the event loop: an
// Envelope to the envelope handler, any other message to the message
// handler.
func (n *Node) receive(from simnet.NodeID, msg simnet.Message) {
	n.mu.Lock()
	h, eh := n.handler, n.envH
	down := n.down
	blocked := n.blocked[from]
	n.mu.Unlock()
	if blocked {
		// The sender was partitioned away by the time the datagram
		// arrived — the receive-side half of simnet's delivery-time
		// reachability check.
		n.stat.dropped.Add(1)
		return
	}
	if down {
		return
	}
	if e, ok := msg.(simnet.Envelope); ok {
		if eh != nil {
			n.stat.received.Add(1)
			eh(from, &e)
		}
		return
	}
	if h != nil {
		n.stat.received.Add(1)
		h(from, msg)
	}
}

// enqueue hands ev to the node's loop; events arriving after shutdown
// are dropped.
func (n *Node) enqueue(ev event) {
	select {
	case n.loop.events <- ev:
	case <-n.done:
	}
}

// post enqueues a callback onto the node's loop.
func (n *Node) post(fn func()) { n.enqueue(event{node: n, fn: fn}) }

// Do runs fn on the node's loop and waits for it to finish — the safe
// way for external goroutines (tests, operator tooling) to inspect
// protocol state owned by the loop. It reports false if the node shut
// down before fn could run.
func (n *Node) Do(fn func()) bool {
	done := make(chan struct{})
	select {
	case n.loop.events <- event{node: n, fn: func() { fn(); close(done) }}:
	case <-n.done:
		return false
	}
	select {
	case <-done:
		return true
	case <-n.done:
		return false
	}
}

// --- simnet.Port ---

// ID returns the node identifier.
func (n *Node) ID() simnet.NodeID { return n.id }

// Now returns the virtual time since the node's clock epoch: wall time
// elapsed divided by the time scale.
func (n *Node) Now() time.Duration {
	n.mu.Lock()
	elapsed := time.Since(n.start)
	n.mu.Unlock()
	if n.scale == 1 {
		return elapsed
	}
	return time.Duration(float64(elapsed) / n.scale)
}

// Rand returns the node's random source. It must only be used from
// protocol callbacks (the event loop), which is how protocols written
// against simnet.Port behave.
func (n *Node) Rand() *rand.Rand { return n.rng }

// Up reports whether the node is open.
func (n *Node) Up() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.closed
}

// OnMessage installs the datagram handler.
func (n *Node) OnMessage(h simnet.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handler = h
}

// OnEnvelope installs the handler for datagrams carrying a
// simnet.Envelope.
func (n *Node) OnEnvelope(h simnet.EnvelopeHandler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.envH = h
}

// SendEnvelope transmits env as a datagram of its own, with Send's
// semantics.
func (n *Node) SendEnvelope(to simnet.NodeID, env simnet.Envelope) bool {
	return n.Send(to, env)
}

// OnUp registers a recovery callback, invoked on the event loop when
// SetDown(false) revives a crashed node — the hook protocols use to
// reset volatile state after a restart, exactly as in the simulator.
func (n *Node) OnUp(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onUp = append(n.onUp, fn)
}

// OnDown registers a crash callback, invoked on the event loop when
// SetDown(true) takes the node down.
func (n *Node) OnDown(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onDown = append(n.onDown, fn)
}

// SetDown injects or repairs a crash fault: while down the node drops
// incoming datagrams, refuses Send, and silences timer and ticker
// callbacks — the realnet analogue of simnet's crashed-node semantics,
// except the process (socket, goroutines, timers) stays alive so
// SetDown(false) restarts it in place. Transition callbacks run on the
// event loop; setting the current state again is a no-op.
func (n *Node) SetDown(down bool) {
	n.mu.Lock()
	if n.closed || n.down == down {
		n.mu.Unlock()
		return
	}
	n.down = down
	hooks := n.onUp
	if down {
		hooks = n.onDown
	}
	n.mu.Unlock()
	n.post(func() {
		for _, fn := range hooks {
			fn()
		}
	})
}

// Down reports whether a crash fault is currently injected.
func (n *Node) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// encode appends msg's datagram to b; false means the message cannot go
// on the wire (unregistered type, or larger than maxDatagram).
func (n *Node) encode(b []byte, msg simnet.Message) ([]byte, bool) {
	b, err := wire.appendDatagram(b, n.id, msg)
	return b, err == nil && len(b) <= maxDatagram
}

// Send encodes and transmits msg to the peer. Unknown peers and
// encoding failures report false, as do sends refused by an injected
// fault: a down node, a partitioned peer, or a loss draw on a shaped
// link — mirroring simnet, where Send reports false when the message
// will not arrive. Refusals are decided first, so only a message that
// will be written or queued is encoded. Safe for concurrent callers.
func (n *Node) Send(to simnet.NodeID, msg simnet.Message) bool {
	n.mu.Lock()
	addr, ok := n.peers[to]
	if !ok || n.closed || n.down {
		n.mu.Unlock()
		return false
	}
	if n.blocked[to] {
		n.mu.Unlock()
		n.stat.dropped.Add(1)
		return false
	}
	sh := n.shapes[to]
	var delay time.Duration
	if sh != nil {
		n.stat.shaped.Add(1)
		if sh.loss > 0 && sh.rng.Float64() < sh.loss {
			n.mu.Unlock()
			n.stat.dropped.Add(1)
			return false
		}
		delay = n.wall(sh.latency)
		if delay > 0 {
			// A queued packet owns its bytes, so it is encoded into a
			// fresh slice and not a pooled one.
			data, ok := n.encode(nil, msg)
			if !ok {
				n.mu.Unlock()
				return false
			}
			if sh.queued >= shapeQueueCap {
				n.mu.Unlock()
				n.stat.dropped.Add(1)
				return false
			}
			n.delayLocked(sh, addr, data, time.Now().Add(delay))
			n.mu.Unlock()
			n.stat.delayed.Add(1)
			return true
		}
	}
	n.mu.Unlock()

	buf := sendBufs.Get().(*[]byte)
	defer sendBufs.Put(buf)
	data, ok := n.encode((*buf)[:0], msg)
	*buf = data
	if !ok {
		return false
	}
	_, err := n.conn.WriteToUDP(data, addr)
	if err == nil {
		n.stat.sent.Add(1)
		n.stat.sentBytes.Add(int64(len(data)))
	}
	return err == nil
}

// SetBlocked replaces the set of peers this node must not exchange
// datagrams with — the per-node projection of a network partition.
// Blocks apply on both paths: Send refuses immediately, the read loop
// drops arrivals from blocked senders, and delayed packets re-check at
// delivery time, so a partition starting while a packet sits in the
// delay line still cuts it off.
func (n *Node) SetBlocked(peers map[simnet.NodeID]bool) {
	cp := make(map[simnet.NodeID]bool, len(peers))
	for id, b := range peers {
		if b {
			cp[id] = true
		}
	}
	n.mu.Lock()
	n.blocked = cp
	n.mu.Unlock()
}

// ShapeLink installs (or replaces) the outgoing shape of the link to
// peer: latency is added virtual delay through the node's delay line
// (FIFO per link), loss the per-datagram drop probability drawn from a
// PRNG stream derived deterministically from (seed, from→to), so two
// runs with the same seed and traffic see the same loss pattern.
func (n *Node) ShapeLink(to simnet.NodeID, latency time.Duration, loss float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	sh := n.shapes[to]
	if sh == nil {
		sh = &linkShape{
			to:  to,
			rng: simnet.NewStream(subSeed(n.netSeed, "loss/"+string(n.id)+"->"+string(to))),
		}
		n.shapes[to] = sh
	}
	sh.latency, sh.loss = latency, loss
}

// ClearShapedLink removes the shape of the link to peer, restoring its
// native latency and zero loss. Packets already in the delay line still
// deliver at their original due time, as in the simulator.
func (n *Node) ClearShapedLink(to simnet.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.shapes, to)
}

// delayLocked puts one of sh's datagrams in the delay line, due no
// earlier than the link's previous packet so that a latency drop never
// lets a later packet overtake, and starts the drain goroutine with the
// first one. Caller holds n.mu on an open node.
func (n *Node) delayLocked(sh *linkShape, addr *net.UDPAddr, data []byte, due time.Time) {
	if due.Before(sh.lastDue) {
		due = sh.lastDue
	}
	sh.lastDue = due
	sh.queued++
	n.lineSeq++
	n.line.push(delayedPacket{due: due, seq: n.lineSeq, data: data, addr: addr, link: sh})
	switch {
	case n.wake == nil:
		n.wake = make(chan struct{}, 1)
		n.wg.Add(1)
		go n.drainLine(n.wake)
	case n.line[0].seq == n.lineSeq: // the new packet is due first
		nudge(n.wake)
	}
}

func nudge(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// drainLine sends the delay line's packets as they fall due, with one
// reused timer, re-checking partitions and shutdown at each delivery.
// It runs from the node's first delayed packet until Close.
func (n *Node) drainLine(wake chan struct{}) {
	defer n.wg.Done()
	// A func timer, not a channel one: a stale fire is one spurious
	// nudge, and Reset needs no drain. The first Reset below arms it.
	timer := time.AfterFunc(time.Hour, func() { nudge(wake) })
	defer timer.Stop()
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		if len(n.line) > 0 {
			if wait := time.Until(n.line[0].due); wait > 0 {
				timer.Reset(wait)
			} else {
				pkt := n.line.pop()
				pkt.link.queued--
				blocked := n.blocked[pkt.link.to]
				n.mu.Unlock()
				n.sendDelayed(pkt, blocked)
				continue
			}
		}
		n.mu.Unlock()
		select {
		case <-wake:
		case <-n.done:
			return
		}
	}
}

func (n *Node) sendDelayed(pkt delayedPacket, blocked bool) {
	if blocked {
		n.stat.dropped.Add(1)
		return
	}
	if _, err := n.conn.WriteToUDP(pkt.data, pkt.addr); err == nil {
		n.stat.sent.Add(1)
		n.stat.sentBytes.Add(int64(len(pkt.data)))
	}
}

// subSeed derives an independent RNG-stream seed from a base seed and
// a stream label (FNV-1a over the label, folded into the seed) — the
// same derivation the fault package uses for schedule generation.
func subSeed(seed int64, label string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return seed ^ int64(h)
}

// After schedules fn on the node's loop d (virtual) from now. The
// returned timer's Stop, safe from any goroutine, takes the timer out of
// the loop's heap and reports whether that prevented the fire.
func (n *Node) After(d time.Duration, fn func()) *simnet.Timer {
	return n.afterEntry(d, &timerEntry{idx: -1, node: n, fn: fn})
}

// AfterArg schedules fn(arg) like After, without a closure.
func (n *Node) AfterArg(d time.Duration, fn func(uint64), arg uint64) *simnet.Timer {
	return n.afterEntry(d, &timerEntry{idx: -1, node: n, argFn: fn, arg: arg})
}

func (n *Node) afterEntry(d time.Duration, e *timerEntry) *simnet.Timer {
	l := n.loop
	l.add(e, n.wall(d))
	return simnet.NewExternalTimer(func() bool { return l.remove(e) })
}

// Every runs fn on the node's loop at the given (virtual) period until
// stopped or the node closes. Like a time.Ticker it keeps its phase and
// drops the ticks a busy loop missed; at high compression the wall
// period is at least 100 µs.
func (n *Node) Every(interval time.Duration, fn func()) *simnet.Ticker {
	wall := n.wall(interval)
	if wall < 100*time.Microsecond {
		wall = 100 * time.Microsecond // ticker floor at high compression
	}
	e := &timerEntry{idx: -1, node: n, fn: fn, period: int64(wall)}
	l := n.loop
	l.add(e, wall)
	return simnet.NewExternalTicker(func() { l.remove(e) })
}
