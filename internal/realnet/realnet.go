// Package realnet runs the repository's protocol implementations over
// a real network: a Node is a simnet.Port backed by a UDP socket and
// the wall clock instead of the simulator. Protocol state machines are
// written single-threaded; realnet preserves that contract by running
// everything that touches a world's state on one loop goroutine
// (loop.go): incoming datagrams and Do functions, and from its heap
// timer fires, ticks, shaped datagrams falling due, crash hooks and a
// Cluster's At callbacks. Every loop waits one way, through a poller. A
// standalone Node owns its loop, fed by a socket reader goroutine of its
// own through the portable chanPoller; a serialized Cluster's nodes
// share the cluster's loop, whose poller on Linux is a reactor that
// waits in epoll over all their sockets and reads them itself
// (reactor_linux.go), so a live city of hundreds of nodes runs on one
// goroutine, with no reader beside it and no lock around its state.
// Each node has one clock, its loop's: Now is the loop clock divided by
// the node's time scale, so Now, timers and shaped latencies count from
// one instant — Run for a standalone node, Start's epoch for a
// Cluster's. The exact same gossip, consensus and data-plane code that runs
// deterministically in the simulator thus also runs on real
// infrastructure. Faults port too: Node.SetDown mirrors simnet's
// crashed-node semantics, every node carries a blocked-peer set (group
// partitions enforce bidirectional drops at both the sender and the
// receiver) and a per-link shaper (probabilistic loss from a PRNG
// seeded deterministically per link; added latency by queueing the
// encoded datagram as a loop entry that sends it when due, FIFO per
// link — so shaping costs memory per packet in flight, not per link,
// and no goroutine). Cluster coordinates those per-node controls across
// a node set with simnet's exact semantics and is a fault.World, so the
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
	"errors"
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

// socketBuffer is what every socket asks of the kernel for its receive
// and send buffers: large clusters burst hard on loopback (hundreds of
// nodes sharing one machine), and bigger buffers queue those bursts
// instead of dropping them.
const socketBuffer = 1 << 20

// errSendFull is a send refused, not waited out, because the socket's
// send buffer was full; it counts as Dropped.
var errSendFull = errors.New("realnet: send buffer full")

// socket is a node's UDP endpoint: a net.UDPConn drained by a reader
// goroutine of the node's, or, under the reactor, a raw fd that the loop
// reads itself (reactor_linux.go).
type socket interface {
	localAddr() *net.UDPAddr
	writeTo(b []byte, to *peer) error
	close() error
}

// peer is where a node sends to one peer, resolved once: the address,
// and the same in the form a raw socket's sendto takes.
type peer struct {
	addr *net.UDPAddr
	raw  rawAddr
}

func newPeer(addr *net.UDPAddr) *peer { return &peer{addr: addr, raw: toRawAddr(addr)} }

// connSocket is a socket read by a goroutine.
type connSocket struct{ *net.UDPConn }

func (s connSocket) localAddr() *net.UDPAddr { return s.LocalAddr().(*net.UDPAddr) }

func (s connSocket) writeTo(b []byte, to *peer) error {
	_, err := s.WriteToUDP(b, to.addr)
	return err
}

func (s connSocket) close() error { return s.Close() }

func listenUDP(bind string) (socket, error) {
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("realnet: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("realnet: listen %q: %w", bind, err)
	}
	// Best-effort: the OS clamps to its limits.
	_ = conn.SetReadBuffer(socketBuffer)
	_ = conn.SetWriteBuffer(socketBuffer)
	return connSocket{conn}, nil
}

// sendBufs recycles the buffers Send encodes into; a datagram's bytes
// are dead once the socket write returns.
var sendBufs = sync.Pool{New: func() any { return new([]byte) }}

// shapeQueueCap bounds how many packets of one shaped link may wait in
// the node's loop at once: a send that finds shapeQueueCap of its
// link's packets already waiting drops (counted in Dropped), the
// overload behaviour of a congested real link.
const shapeQueueCap = 4096

// NetStats counts one node's datagram-level traffic and the pressure
// the fault machinery put on it. Dropped counts packets removed by
// partitions, shaper loss, delay-queue overflow, delayed packets whose
// link was cut before delivery, arrivals while the node was down, and
// sends a polled socket's full send buffer refused — not sends refused
// because the node itself was down. A send-side drop
// never enters Sent, so a cluster's Received + Dropped can exceed its
// Sent. Malformed counts arrivals the codec refused:
// a decode error, an unknown version or type tag, trailing bytes.
type NetStats struct {
	Sent      int64 // datagrams written to the socket
	SentBytes int64 // bytes written to the socket
	Received  int64 // datagrams delivered to the handler
	Dropped   int64 // datagrams dropped by partition/loss/overflow/crash
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

// linkShape is the fault-injected state of one outgoing link: added
// latency (virtual time; scaled to the wall clock at send) and
// probabilistic loss drawn from a per-link deterministic PRNG. Its
// delayed packets wait as entries in the node's loop; lastDue keeps
// them in FIFO order. All fields are guarded by Node.mu.
type linkShape struct {
	to      simnet.NodeID
	latency time.Duration
	loss    float64
	rng     *rand.Rand
	lastDue int64 // loop-clock due time of the link's latest delayed packet
	queued  int   // the link's packets waiting in the loop
}

// Node is one real-network protocol host. Construct with NewNode, add
// peers, install protocols (they call OnMessage/Every through the Port
// interface), then Run; a Cluster's nodes come from AddNode and run
// from Start. Close stops the socket and, on a node that owns
// its loop, the loop.
type Node struct {
	id      simnet.NodeID
	sock    socket
	rng     *rand.Rand
	scale   float64 // wall seconds per virtual second (default 1)
	netSeed int64   // base seed for per-link loss PRNG streams
	loop    *loop   // runs the node's callbacks and timers
	ownLoop bool    // false when a serialized Cluster shares its loop

	mu      sync.Mutex
	peers   map[simnet.NodeID]*peer
	handler simnet.Handler
	envH    simnet.EnvelopeHandler
	closed  bool
	down    bool
	onUp    []func()
	onDown  []func()
	blocked map[simnet.NodeID]bool
	shapes  map[simnet.NodeID]*linkShape

	// known maps a cluster member's ID bytes to its NodeID, so that a
	// datagram from a member decodes without allocating the sender's
	// name. Cluster.Start sets it before the socket is read, which
	// reads it without the lock; nil on a node outside a Cluster.
	known map[string]simnet.NodeID

	stat netCounters

	done chan struct{}
	wg   sync.WaitGroup
}

var _ simnet.Port = (*Node)(nil)

// NewNode binds a UDP socket. bind may be ":0" for an ephemeral port;
// Addr reports the actual address. The node's random stream is seeded
// from the wall clock and its clock runs at real time; Cluster nodes
// get deterministic seeds and the cluster's time scale instead.
func NewNode(id simnet.NodeID, bind string) (*Node, error) {
	return newNode(id, bind, time.Now().UnixNano(), 0, 1, nil)
}

// newNode binds the socket of a node whose random stream starts at
// seed, whose per-link loss streams derive from netSeed, and whose one
// virtual second occupies scale wall seconds: Now reports virtual time,
// and After/Every and shaper latencies convert virtual durations to
// wall delays, so protocol code written against virtual intervals runs
// unchanged at any compression. The node runs on shared when it is not
// nil, and on a loop of its own otherwise; the loop's poller binds the
// node's socket.
func newNode(id simnet.NodeID, bind string, seed, netSeed int64, scale float64, shared *loop) (*Node, error) {
	l := shared
	if l == nil {
		l = newLoop(1024, newChanPoller())
	}
	n := &Node{
		id:      id,
		rng:     simnet.NewStream(seed),
		scale:   scale,
		netSeed: netSeed,
		peers:   make(map[simnet.NodeID]*peer),
		blocked: make(map[simnet.NodeID]bool),
		shapes:  make(map[simnet.NodeID]*linkShape),
		loop:    l,
		ownLoop: shared == nil,
		done:    make(chan struct{}),
	}
	var err error
	if n.sock, err = l.poll.listen(n, bind); err != nil {
		return nil, err
	}
	return n, nil
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
func (n *Node) Addr() string { return n.sock.localAddr().String() }

// AddPeer registers a peer's address.
func (n *Node) AddPeer(id simnet.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("realnet: resolve peer %q: %w", addr, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[id] = newPeer(ua)
	return nil
}

// Run starts the reader goroutine and, on a node that owns its loop,
// the loop goroutine, whose clock counts from now. Call after the
// protocols are installed.
func (n *Node) Run() { n.run(time.Now()) }

// run is Run with the loop clock based at epoch, so that every node of
// a Cluster and the cluster's own loop share one zero. A socket the
// loop polls gets no reader.
func (n *Node) run(epoch time.Time) {
	if conn, ok := n.sock.(connSocket); ok {
		n.wg.Add(1)
		go n.readLoop(conn.UDPConn)
	}
	if n.ownLoop {
		n.loop.start(epoch)
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
	_ = n.sock.close()
	if n.ownLoop {
		n.loop.stop()
	}
	n.wg.Wait()
}

func (n *Node) readLoop(conn *net.UDPConn) {
	defer n.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		sz, _, err := conn.ReadFromUDP(buf)
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
	if blocked || down {
		// The sender was partitioned away, or the node crashed, by the
		// time the datagram arrived — the receive-side half of simnet's
		// delivery-time checks, which count both as dropped.
		n.stat.dropped.Add(1)
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
	n.loop.poll.queued(n.loop)
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

// Now returns the node's virtual time: its loop clock divided by the
// time scale (zero until the loop starts).
func (n *Node) Now() time.Duration {
	elapsed := n.loop.now()
	if n.scale == 1 {
		return time.Duration(elapsed)
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
// event loop, queued in its heap so that a SetDown made on the loop
// never waits for it; setting the current state again is a no-op.
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
	n.loop.after(&timerEntry{idx: -1, fn: func() {
		for _, fn := range hooks {
			fn()
		}
	}}, 0)
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
// will be written or queued is encoded. A full send buffer refuses too,
// and counts as dropped, rather than block. Safe for concurrent callers.
func (n *Node) Send(to simnet.NodeID, msg simnet.Message) bool {
	n.mu.Lock()
	p, ok := n.peers[to]
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
			if sh.queued >= shapeQueueCap {
				n.mu.Unlock()
				n.stat.dropped.Add(1)
				return false
			}
			// A queued packet owns its bytes, so it is encoded into a
			// fresh slice and not a pooled one.
			data, ok := n.encode(nil, msg)
			if !ok {
				n.mu.Unlock()
				return false
			}
			// Due no earlier than the link's previous packet, so that a
			// latency drop never lets a later packet overtake. The entry
			// has no owner: it goes out even if n crashes first.
			sh.lastDue = max(n.loop.now()+int64(delay), sh.lastDue)
			sh.queued++
			n.loop.at(&timerEntry{idx: -1, fn: func() { n.sendDelayed(sh, p, data) }}, sh.lastDue)
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
	return n.write(data, p)
}

// write puts one datagram on n's socket and counts it: as sent, or, if
// the send buffer was full, as dropped.
func (n *Node) write(data []byte, p *peer) bool {
	switch err := n.sock.writeTo(data, p); err {
	case nil:
		n.stat.sent.Add(1)
		n.stat.sentBytes.Add(int64(len(data)))
		return true
	case errSendFull:
		n.stat.dropped.Add(1)
	}
	return false
}

// SetBlocked replaces the set of peers this node must not exchange
// datagrams with — the per-node projection of a network partition.
// Blocks apply on both paths: Send refuses immediately, the read loop
// drops arrivals from blocked senders, and delayed packets re-check at
// delivery time, so a partition starting while a packet waits out its
// link's latency still cuts it off.
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
// peer: latency is added virtual delay, the datagram waiting in the
// node's loop (FIFO per link), loss the per-datagram drop probability
// drawn from a PRNG stream derived deterministically from (seed,
// from→to), so two runs with the same seed and traffic see the same
// loss pattern.
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
			rng: simnet.NewStream(simnet.SubSeed(n.netSeed, "loss/"+string(n.id)+"->"+string(to))),
		}
		n.shapes[to] = sh
	}
	sh.latency, sh.loss = latency, loss
}

// ClearShapedLink removes the shape of the link to peer, restoring its
// native latency and zero loss. Packets already waiting still deliver
// at their original due time, as in the simulator.
func (n *Node) ClearShapedLink(to simnet.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.shapes, to)
}

// sendDelayed writes one of sh's delayed datagrams when it falls due,
// unless a partition has cut the link since it was queued.
func (n *Node) sendDelayed(sh *linkShape, p *peer, data []byte) {
	n.mu.Lock()
	sh.queued--
	blocked := n.blocked[sh.to]
	n.mu.Unlock()
	if blocked {
		n.stat.dropped.Add(1)
		return
	}
	n.write(data, p)
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
	l.after(e, n.wall(d))
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
	l.after(e, wall)
	return simnet.NewExternalTicker(func() { l.remove(e) })
}
