package simnet

// Shard lanes: conservative parallel discrete-event simulation
// (Chandy–Misra–Bryant style) behind WithShards.
//
// The simulation is n shard lanes plus one coordinator lane. Every
// node is assigned to a shard lane (SetShard); sim-level timers
// (Sim.At/After — environment stepping, fault injection, measurement)
// run on the coordinator lane. Each lane owns a full scheduler — timing
// wheel, event, delivery and timer arenas, traffic stats — so lanes
// execute without sharing any scheduler state. With n == 0 (no
// WithShards) the coordinator lane is the whole simulation: every node
// lives on it and nothing below the accessors in this file runs.
//
// Correctness at n >= 1 rests on three mechanisms:
//
//  1. Logical event keys. With zero lanes events are ordered by
//     (at, seq) with seq a global allocation counter — an order that
//     only exists on one thread. With shard lanes seq is packed as
//     rank<<ctrBits | counter, where rank is the scheduling node's
//     AddNode position (coordinator = rank 0) and counter is that
//     node's private event count (Sim.nextKey). The key depends only on
//     per-node history, so it is identical at any shard count, and the
//     total order (at, seq) is reconstructible after the fact — that is
//     what makes journals byte-identical at 1, 2, 4 or 8 shards.
//
//  2. Per-node random streams. The shared rng would be consumed in
//     nondeterministic order across lanes, so every node draws loss/
//     jitter/duplication and application randomness (Endpoint.Rand)
//     from its own splitmix-seeded 16-byte PCG stream (addToLane,
//     stream.go). Draw sequences then depend only on the node's own
//     event history. (This makes
//     runs with shard lanes a different — but internally consistent —
//     universe from runs without; the invariance contract is across
//     shard counts, not against the shared stream.)
//
//  3. Conservative lookahead windows. Cross-lane influence travels
//     only through messages, and every link has a latency floor (the
//     minimum cross-lane link latency; jitter only adds). With
//     lookahead la > 0, all lanes may run [W0, W0+la) in parallel:
//     any message sent inside the window arrives at or after its end.
//     Cross-lane sends are buffered in per-lane outboxes and injected
//     into the destination wheel at the window barrier, in fixed lane
//     order — injection order is irrelevant because the logical key is
//     the total order. Coordinator events are barriers by construction:
//     a window never extends past the next coordinator event, so
//     global mutations (partitions, link changes, crashes, environment
//     stepping) happen single-threaded between windows.
//
// When the lookahead collapses to zero (a cross-lane link override
// with zero latency) or n == 1, the simulation falls back to executing
// all lanes' events serially in global (at, seq) order — the same
// total order the parallel mode realizes, minus the parallelism.

import (
	"fmt"
	"sync"
	"time"
)

// ctrBits is the width of the per-node event counter inside a packed
// logical key; the node rank occupies the bits above it. 2^40 events
// per node and 2^24 nodes are both far beyond any simulated scenario.
const ctrBits = 40

// xfer is one cross-lane message in flight between window barriers.
// The key (at, seq) was assigned by the sender at send time, so the
// barrier's injection order cannot affect the delivery order.
type xfer struct {
	at  time.Duration
	seq uint64
	dst *node
	delivery
}

// laneJob dispatches one lane's window to a worker goroutine.
type laneJob struct {
	ln   *lane
	end  time.Duration
	incl bool
}

// sharding is the Sim's set of lanes and the window state that
// coordinates them.
type sharding struct {
	n     int     // shard lanes
	lanes []*lane // length n+1
	coord *lane   // lanes[n]

	nextRank uint32 // rank allocator; 0 is reserved for the coordinator

	la      time.Duration // cached lookahead: min cross-lane link latency
	laDirty bool          // recompute la before the next window

	// inPar is true while shard workers execute a window. Written by
	// the coordinating goroutine before worker dispatch and after the
	// join, so worker reads are ordered by the dispatch channel.
	inPar     bool
	windowEnd time.Duration // current window end, for the outbox guard

	serialized bool // degraded permanently to the serial merged path

	jobs    chan laneJob
	wg      sync.WaitGroup
	started bool
}

// init builds n shard lanes and the coordinator lane.
func (sh *sharding) init(n int) {
	*sh = sharding{n: n, laDirty: true, lanes: make([]*lane, n+1)}
	for i := range sh.lanes {
		sh.lanes[i] = &lane{idx: i, wheel: newTimerWheel()}
	}
	sh.coord = sh.lanes[n]
}

// WithShards splits the simulation into n shard lanes. n == 1 runs the
// same logical-key scheduler without parallelism — the serial reference
// the invariance gate diffs against. Nodes default to lane 0; assign
// them with SetShard before scheduling anything.
func WithShards(n int) Option {
	return func(s *Sim) {
		if n < 1 {
			panic(fmt.Sprintf("simnet: WithShards(%d): need at least one shard", n))
		}
		s.shd.n = n // New builds the lanes
	}
}

// ShardCount returns the number of shard lanes, 0 without WithShards.
func (s *Sim) ShardCount() int { return s.shd.n }

// SetShard assigns a node to a shard lane. It must be called during
// topology construction, before anything is scheduled on or sent to
// the node — moving a node with queued events would strand them on the
// old lane. Without shard lanes it is a no-op, so scenario builders call
// it unconditionally.
func (s *Sim) SetShard(id NodeID, shard int) {
	sh := &s.shd
	if sh.n == 0 {
		return
	}
	if shard < 0 || shard >= sh.n {
		panic(fmt.Sprintf("simnet: SetShard(%q, %d): shard out of range [0,%d)", id, shard, sh.n))
	}
	n, ok := s.nodes[id]
	if !ok {
		panic(fmt.Sprintf("simnet: SetShard(%q): unknown node", id))
	}
	if n.ctr != 0 {
		panic(fmt.Sprintf("simnet: SetShard(%q) after the node scheduled events", id))
	}
	n.ln = sh.lanes[shard]
	sh.laDirty = true
}

// ExecContext reports the lane index and logical key of the event
// currently executing on behalf of ep — the node's lane during a
// parallel window, the coordinator lane during barrier execution (and
// for ep == nil). ok is false without shard lanes: there is one lane
// and nothing to merge. Callers use it to route side records (journals,
// audit engines) to per-lane storage that is merged by key after the
// run.
func (s *Sim) ExecContext(ep *Endpoint) (laneIdx int, seq uint64, ok bool) {
	sh := &s.shd
	if sh.n == 0 {
		return 0, 0, false
	}
	ln := sh.coord
	if sh.inPar && ep != nil {
		ln = ep.node.ln
	}
	return ln.idx, ln.curSeq, true
}

// addToLane gives a freshly added node its lane and its random stream.
// Without shard lanes that is the coordinator lane and the simulation's
// one shared stream. With them it is shard lane 0 until SetShard says
// otherwise, a rank (its key space, see Sim.nextKey) and a private
// PCG stream, held in the node, derived from the seed and the rank.
func (s *Sim) addToLane(n *node) {
	sh := &s.shd
	n.ln = sh.lanes[0]
	if sh.n == 0 {
		n.rng = s.rng
		return
	}
	sh.nextRank++
	n.rank = sh.nextRank
	n.rng = n.st.init(MixSeed(s.seed, uint64(n.rank)))
	sh.laDirty = true
}

// syncLanes advances every lane clock that is behind t to t.
func (s *Sim) syncLanes(t time.Duration) {
	for _, ln := range s.shd.lanes {
		if ln.now < t {
			ln.now = t
		}
	}
}

// computeLookahead returns the smallest latency of any cross-lane
// link: the conservative window width. Only link overrides can lower
// it below the default latency; partitions and cuts drop traffic
// entirely and never make it faster.
func (s *Sim) computeLookahead() time.Duration {
	la := s.defLat
	for k, ov := range s.net.links {
		if ov.latency >= la {
			continue
		}
		from, to := s.nodes[k.from], s.nodes[k.to]
		if from == nil || to == nil || from.ln == to.ln {
			continue
		}
		la = ov.latency
	}
	return la
}

// drainOutboxes injects buffered cross-lane transfers into their
// destination wheels. Lane iteration order is fixed but irrelevant:
// delivery order is governed by the sender-assigned keys.
func (s *Sim) drainOutboxes() {
	for _, ln := range s.shd.lanes[:s.shd.n] {
		for i := range ln.outbox {
			x := &ln.outbox[i]
			*x.dst.ln.queueDelivery(x.at, x.seq, x.dst) = x.delivery
			*x = xfer{} // drop the payload reference
		}
		ln.outbox = ln.outbox[:0]
	}
}

// startWorkers spins up the persistent window executors (one per shard
// lane beyond the first; the coordinating goroutine runs one lane
// inline).
func (sh *sharding) startWorkers(s *Sim) {
	if sh.started || sh.n < 2 {
		return
	}
	// Workers range over a local copy of the channel: reading the
	// sh.jobs field from the worker goroutines would race with
	// stopWorkers clearing it.
	jobs := make(chan laneJob)
	sh.jobs = jobs
	for i := 0; i < sh.n-1; i++ {
		go func() {
			for j := range jobs {
				s.laneRun(j.ln, j.end, j.incl)
				sh.wg.Done()
			}
		}()
	}
	sh.started = true
}

func (sh *sharding) stopWorkers() {
	if !sh.started {
		return
	}
	close(sh.jobs)
	sh.jobs = nil
	sh.started = false
}

// runShards executes one parallel window across all lanes that have
// work before end. With one active lane the window runs inline.
func (s *Sim) runShards(end time.Duration, incl bool) {
	sh := &s.shd
	var active []*lane
	for _, ln := range sh.lanes[:sh.n] {
		if entry, ok := ln.peekLive(); ok && (entry.at < end || (incl && entry.at == end)) {
			active = append(active, ln)
		}
	}
	if len(active) == 0 {
		return
	}
	sh.windowEnd = end
	if len(active) == 1 {
		sh.inPar = true
		s.laneRun(active[0], end, incl)
		sh.inPar = false
		return
	}
	sh.inPar = true
	sh.wg.Add(len(active) - 1)
	for _, ln := range active[1:] {
		sh.jobs <- laneJob{ln: ln, end: end, incl: incl}
	}
	s.laneRun(active[0], end, incl)
	sh.wg.Wait()
	sh.inPar = false
}

// minLaneAt returns the lane holding the globally minimal live event
// no later than horizon, by (at, seq).
func (s *Sim) minLaneAt(horizon time.Duration) (*lane, heapEntry, bool) {
	var best *lane
	var bestE heapEntry
	for _, ln := range s.shd.lanes {
		entry, ok := ln.peekLive()
		if !ok || entry.at > horizon {
			continue
		}
		if best == nil || entry.at < bestE.at || (entry.at == bestE.at && entry.seq < bestE.seq) {
			best, bestE = ln, entry
		}
	}
	return best, bestE, best != nil
}

// runSerial executes all lanes' events up to horizon in global
// (at, seq) order on one goroutine — the fallback when the lookahead
// is zero and the reference semantics the parallel windows realize.
func (s *Sim) runSerial(horizon time.Duration) {
	coord := s.shd.coord
	for {
		ln, entry, ok := s.minLaneAt(horizon)
		if !ok {
			break
		}
		if ln == coord {
			// Coordinator events mutate global state and their callbacks
			// send from arbitrary nodes' endpoints; park every lane clock
			// at the event time first, exactly as the windowed path does
			// before its coordinator drains — otherwise an OnUp send is
			// stamped with the node lane's stale clock.
			s.syncLanes(entry.at)
		}
		s.laneExec(ln, entry)
	}
	s.syncLanes(horizon)
}

// runWindows is RunUntil with shard lanes: alternate single-threaded
// coordinator drains (global mutations) with parallel lane windows
// bounded by the lookahead and the next coordinator event.
func (s *Sim) runWindows(horizon time.Duration) {
	sh := &s.shd
	if sh.serialized {
		s.runSerial(horizon)
		return
	}
	coord := sh.coord
	sh.startWorkers(s)
	defer sh.stopWorkers()
	for {
		if sh.laDirty {
			sh.la = s.computeLookahead()
			sh.laDirty = false
		}
		if sh.n == 1 || sh.la <= 0 {
			// Zero lookahead cannot window; fall back for good. (A later
			// link restore could re-enable windows, but a scenario that
			// zeroes a cross-lane link has chosen correctness over speed.)
			sh.serialized = sh.la <= 0
			s.runSerial(horizon)
			return
		}
		coordEntry, coordOK := coord.peekLive()
		if coordOK && coordEntry.at > horizon {
			coordOK = false
		}
		minNext := time.Duration(-1)
		for _, ln := range sh.lanes[:sh.n] {
			if entry, ok := ln.peekLive(); ok && entry.at <= horizon {
				if minNext < 0 || entry.at < minNext {
					minNext = entry.at
				}
			}
		}
		if !coordOK && minNext < 0 {
			break
		}
		if coordOK && (minNext < 0 || coordEntry.at <= minNext) {
			// Coordinator first: rank 0 sorts lowest at equal times, and
			// its events may mutate global state, so it runs alone with
			// every lane parked at its timestamp.
			s.syncLanes(coordEntry.at)
			s.laneRun(coord, coordEntry.at, true)
			continue
		}
		// A parallel window: no coordinator event before minNext, and
		// nothing sent after minNext can arrive before minNext+la.
		end, incl := minNext+sh.la, false
		if coordOK && coordEntry.at < end {
			end = coordEntry.at
		}
		if end > horizon {
			// Final window: events exactly at the horizon execute, as
			// RunUntil promises. Safe: their sends arrive
			// strictly later and stay queued past the horizon.
			end, incl = horizon, true
		}
		s.runShards(end, incl)
		s.syncLanes(end)
		s.drainOutboxes()
	}
	s.syncLanes(horizon)
}
