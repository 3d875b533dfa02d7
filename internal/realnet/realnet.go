// Package realnet runs the repository's protocol implementations over
// a real network: a Node is a simnet.Port backed by a UDP socket and
// the wall clock instead of the simulator. Protocol state machines are
// written single-threaded; realnet preserves that contract by
// funneling every event — incoming datagram, timer fire, tick —
// through one event-loop goroutine, so the exact same gossip,
// consensus and data-plane code that runs deterministically in the
// simulator also runs on real infrastructure. Faults port too:
// Node.SetDown mirrors simnet's crashed-node semantics, every node
// carries a blocked-peer set (group partitions enforce bidirectional
// drops at both the sender and the receiver) and a per-link shaper
// (added latency through a FIFO delay queue, probabilistic loss from a
// PRNG seeded deterministically per link). Cluster coordinates those
// per-node controls across a node set with simnet's exact semantics and
// is a fault.World, so the injector that replays a fault.Schedule (e.g.
// a committed chaos counterexample) on the simulator replays it on live
// sockets.
//
// Wire format: a datagram-native binary codec (codec.go). Protocol
// packages register their message types via their RegisterWire
// functions before nodes start; registration compiles, once per type, a
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

// shapeQueueCap bounds each shaped link's delay queue; packets beyond
// it drop, the overload behaviour of a congested real link.
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

// delayedPacket is one encoded datagram waiting in a link's delay
// queue.
type delayedPacket struct {
	data []byte
	addr *net.UDPAddr
	to   simnet.NodeID
	due  time.Time
}

// linkShape is the fault-injected state of one outgoing link: added
// latency (virtual time; scaled to the wall clock at send) and
// probabilistic loss drawn from a per-link deterministic PRNG. The
// queue exists only while latency > 0 has been requested at least
// once; its drain goroutine preserves FIFO order per link.
type linkShape struct {
	latency time.Duration
	loss    float64
	rng     *rand.Rand // guarded by Node.mu
	q       chan delayedPacket
}

// Node is one real-network protocol host. Construct with NewNode, add
// peers, install protocols (they call OnMessage/Every through the Port
// interface), then Run. Close stops the event loop and the socket.
type Node struct {
	id      simnet.NodeID
	conn    *net.UDPConn
	rng     *rand.Rand
	scale   float64     // wall seconds per virtual second (default 1)
	netSeed int64       // base seed for per-link loss PRNG streams
	serial  *sync.Mutex // optional world lock around event callbacks

	mu      sync.Mutex
	start   time.Time
	peers   map[simnet.NodeID]*net.UDPAddr
	handler simnet.Handler
	closed  bool
	down    bool
	onUp    []func()
	onDown  []func()
	blocked map[simnet.NodeID]bool
	shapes  map[simnet.NodeID]*linkShape

	stat netCounters

	events chan func()
	done   chan struct{}
	wg     sync.WaitGroup
}

var _ simnet.Port = (*Node)(nil)

// NewNode binds a UDP socket. bind may be ":0" for an ephemeral port;
// Addr reports the actual address. The node's random stream is seeded
// from the wall clock; Cluster nodes get deterministic seeds instead.
func NewNode(id simnet.NodeID, bind string) (*Node, error) {
	return newNode(id, bind, time.Now().UnixNano(), 0)
}

// newNode binds the socket of a node whose random stream starts at
// seed and whose per-link loss streams derive from netSeed.
func newNode(id simnet.NodeID, bind string, seed, netSeed int64) (*Node, error) {
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
		events:  make(chan func(), 1024),
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

// SetSerializer installs a shared mutex held around every event-loop
// callback. A cluster of nodes sharing one serializer behaves like the
// simulator's single-threaded world: any goroutine holding the mutex
// can read protocol state without racing the event loops. Call before
// Run. Never call Do while holding the serializer — that deadlocks.
func (n *Node) SetSerializer(mu *sync.Mutex) { n.serial = mu }

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

// Run starts the reader and event-loop goroutines. Call after the
// protocols are installed.
func (n *Node) Run() {
	n.wg.Add(2)
	go n.readLoop()
	go n.eventLoop()
}

// Close shuts the node down and waits for its goroutines to exit.
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
		from, msg, err := wire.decodeDatagram(buf[:sz])
		if err != nil {
			n.stat.malformed.Add(1)
			continue
		}
		n.post(func() {
			n.mu.Lock()
			h := n.handler
			down := n.down
			blocked := n.blocked[from]
			n.mu.Unlock()
			if blocked {
				// The sender was partitioned away by the time the
				// datagram arrived — the receive-side half of simnet's
				// delivery-time reachability check.
				n.stat.dropped.Add(1)
				return
			}
			if h != nil && !down {
				n.stat.received.Add(1)
				h(from, msg)
			}
		})
	}
}

func (n *Node) eventLoop() {
	defer n.wg.Done()
	for {
		select {
		case fn := <-n.events:
			if n.serial != nil {
				n.serial.Lock()
				fn()
				n.serial.Unlock()
			} else {
				fn()
			}
		case <-n.done:
			return
		}
	}
}

// post enqueues a callback onto the event loop; events arriving after
// shutdown are dropped.
func (n *Node) post(fn func()) {
	select {
	case n.events <- fn:
	case <-n.done:
	}
}

// Do runs fn on the event loop and waits for it to finish — the safe
// way for external goroutines (tests, operator tooling) to inspect
// protocol state owned by the loop. It reports false if the node shut
// down before fn could run.
func (n *Node) Do(fn func()) bool {
	done := make(chan struct{})
	select {
	case n.events <- func() { fn(); close(done) }:
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
			// Enqueue under mu: the queue is only closed (by
			// ClearShapedLink/Close) while mu is held and the shape
			// removed from the map, so this send cannot race a close.
			// A queued packet owns its bytes, so it is encoded into a
			// fresh slice and not a pooled one.
			data, ok := n.encode(nil, msg)
			if !ok {
				n.mu.Unlock()
				return false
			}
			select {
			case sh.q <- delayedPacket{data: data, addr: addr, to: to, due: time.Now().Add(delay)}:
				n.mu.Unlock()
				n.stat.delayed.Add(1)
				return true
			default:
				n.mu.Unlock()
				n.stat.dropped.Add(1)
				return false
			}
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
// delivery time, so a partition starting while a packet sits in a delay
// queue still cuts it off.
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
// peer: latency is added virtual delay through a FIFO queue, loss the
// per-datagram drop probability drawn from a PRNG stream derived
// deterministically from (seed, from→to), so two runs with the same
// seed and traffic see the same loss pattern.
func (n *Node) ShapeLink(to simnet.NodeID, latency time.Duration, loss float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	sh := n.shapes[to]
	if sh == nil {
		sh = &linkShape{
			rng: simnet.NewStream(subSeed(n.netSeed, "loss/"+string(n.id)+"->"+string(to))),
		}
		n.shapes[to] = sh
	}
	sh.latency, sh.loss = latency, loss
	if latency > 0 && sh.q == nil {
		sh.q = make(chan delayedPacket, shapeQueueCap)
		n.wg.Add(1)
		go n.drainShape(sh.q)
	}
}

// ClearShapedLink removes the shape of the link to peer, restoring its
// native latency and zero loss. Packets already in the delay queue
// still deliver at their original due time, as in the simulator.
func (n *Node) ClearShapedLink(to simnet.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sh := n.shapes[to]
	if sh == nil {
		return
	}
	delete(n.shapes, to)
	if sh.q != nil {
		close(sh.q) // drain flushes the backlog, then exits
	}
}

// drainShape delivers one link's delayed packets in FIFO order,
// re-checking partitions and shutdown at each packet's due time.
func (n *Node) drainShape(q chan delayedPacket) {
	defer n.wg.Done()
	for {
		select {
		case pkt, ok := <-q:
			if !ok {
				return
			}
			if d := time.Until(pkt.due); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-n.done:
					t.Stop()
					return
				}
			}
			n.deliverDelayed(pkt)
		case <-n.done:
			return
		}
	}
}

func (n *Node) deliverDelayed(pkt delayedPacket) {
	n.mu.Lock()
	blocked := n.blocked[pkt.to]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
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

// After schedules fn on the event loop d (virtual) from now.
func (n *Node) After(d time.Duration, fn func()) *simnet.Timer {
	var fired sync.Once
	stopped := false
	var mu sync.Mutex
	t := time.AfterFunc(n.wall(d), func() {
		n.post(func() {
			mu.Lock()
			s := stopped
			mu.Unlock()
			if s || n.Down() {
				return
			}
			fired.Do(fn)
		})
	})
	return simnet.NewExternalTimer(func() bool {
		mu.Lock()
		already := stopped
		stopped = true
		mu.Unlock()
		return t.Stop() && !already
	})
}

// Every runs fn on the event loop at the given (virtual) period until
// stopped or the node closes.
func (n *Node) Every(interval time.Duration, fn func()) *simnet.Ticker {
	wall := n.wall(interval)
	if wall < 100*time.Microsecond {
		wall = 100 * time.Microsecond // ticker floor at high compression
	}
	ticker := time.NewTicker(wall)
	stop := make(chan struct{})
	var once sync.Once
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			select {
			case <-ticker.C:
				n.post(func() {
					if !n.Down() {
						fn()
					}
				})
			case <-stop:
				return
			case <-n.done:
				return
			}
		}
	}()
	return simnet.NewExternalTicker(func() {
		once.Do(func() {
			ticker.Stop()
			close(stop)
		})
	})
}
