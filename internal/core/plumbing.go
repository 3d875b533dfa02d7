package core

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/space"
)

// Wire messages shared by the archetypes.

// readingMsg carries one sensor item to a collector. Seq 0 means
// fire-and-forget (no ack expected), used for edge→cloud forwarding.
type readingMsg struct {
	Seq  uint64
	Item dataflow.Item
}

// actuateMsg commands an actuator to the desired engagement state: the
// payload ML2 publishes on a zone's actuation topic. The direct
// actuation path sends the same command as an envActuate envelope.
// Either way it is idempotent and re-sent every control period so a
// restarted actuator re-learns its state.
type actuateMsg struct {
	Zone   int
	Engage bool
}

func (m readingMsg) Size() int { return 24 + 64 }
func (m actuateMsg) Size() int { return 16 }

// Envelope kinds for the fixed-size core wire messages. Kinds are
// namespaced per protocol port ("data" carries acks, "act" carries
// actuation commands); readingMsg itself stays boxed (it carries an
// Item).
const (
	envReadingAck uint16 = 1 // "data": A=Seq; 12 B
	envActuate    uint16 = 2 // "act": A=zone, Flag=engage; 16 B, actuateMsg's Size
)

// directActuate returns the send half of the direct actuation path
// over port.
func directActuate(port simnet.Port) func(z int, engage bool) {
	return func(z int, engage bool) { sendActTo(port, actuatorID(z), z, engage) }
}

// sendActTo ships one actuation command to an explicit target — the
// backup-actuator failover path; directActuate is the fixed-primary
// one.
func sendActTo(port simnet.Port, to simnet.NodeID, z int, engage bool) {
	port.SendEnvelope(to, simnet.Envelope{Kind: envActuate, A: uint64(z), Flag: engage, Bytes: 16})
}

// zoneTempKey is the data key of a zone's temperature stream.
func zoneTempKey(z int) string {
	if z >= 0 && z < keyTableSize {
		return zoneTempKeys[z]
	}
	return fmt.Sprintf("z%d/temp", z)
}

// zoneTempAgeKey is the knowledge-base key carrying the age of a
// zone's last temperature sample.
func zoneTempAgeKey(z int) string {
	if z >= 0 && z < keyTableSize {
		return zoneTempAgeKeys[z]
	}
	return zoneTempKey(z) + "/age"
}

// zoneOccKey is the data key of a zone's (sensitive) occupancy stream.
func zoneOccKey(z int) string {
	if z >= 0 && z < keyTableSize {
		return zoneOccKeys[z]
	}
	return fmt.Sprintf("z%d/occ", z)
}

// ackTimeout bounds how long a reporter waits for a collector ack
// before counting a miss.
const ackTimeout = 500 * time.Millisecond

// reporterMissLimit is how many consecutive misses trigger failover to
// the next collector candidate.
const reporterMissLimit = 2

// reporterHomeInterval is how often a failed-over reporter retries its
// primary candidate, so a recovered collector is rediscovered.
const reporterHomeInterval = 30 * time.Second

// candidateList is a reporter's prioritized collector candidates with
// everything behind the first deferred. A reporter talks to primary
// until reporterMissLimit acks in a row go missing, which in a
// standard-fault metropolis run happens to about one sensor in a
// hundred; the rotation arithmetic needs only n. So the full list is a
// function the reporter calls the first time it leaves primary, and
// construction does not pay sensors × edge to build lists nobody reads.
type candidateList struct {
	primary simnet.NodeID
	n       int
	// order returns all n candidates, primary first. It runs on the
	// sensor's own event loop at failover time, concurrently with other
	// nodes' handlers (shard lanes, live per-node loops), so it must
	// read nothing that mutates after construction — in particular not
	// space.Map, which domain-transfer faults write.
	order func() []simnet.NodeID
}

// fixedCandidates is the candidate list of a sensor whose collectors
// are designated statically (ML1, ML3, the ML4 no-failover ablation).
func fixedCandidates(ids ...simnet.NodeID) candidateList {
	if len(ids) == 0 {
		return candidateList{}
	}
	return candidateList{primary: ids[0], n: len(ids), order: func() []simnet.NodeID { return ids }}
}

// nearestFirst is the candidate list of a sensor at from that may
// report to any member of rank, nearest first (ML4). Both are captured
// by value here, at wiring time; order never goes back to the map.
func nearestFirst(rank *space.Ranking, from space.Point) candidateList {
	primary, _ := rank.Nearest(from)
	return candidateList{primary: simnet.NodeID(primary), n: rank.Len(), order: func() []simnet.NodeID {
		ordered := rank.Order(from)
		out := make([]simnet.NodeID, len(ordered))
		for i, id := range ordered {
			out[i] = simnet.NodeID(id)
		}
		return out
	}}
}

// reporter delivers sensor readings to a prioritized list of collector
// candidates with ack-based failover: after reporterMissLimit
// consecutive unacknowledged readings it rotates to the next candidate
// (and eventually back, so a recovered primary is rediscovered).
type reporter struct {
	port      simnet.Port
	timeoutFn func(uint64) // onAckTimeout bound once, reused per send
	candidateList
	ordered []simnet.NodeID // order(), kept from the first failover on
	cur     int
	misses  int
	seq     uint64
	pending map[uint64]*simnet.Timer
	bus     *obs.Bus
	// sticky (ScenarioConfig.StickyFailover) makes a failed home retry
	// jump straight back to the last acked candidate instead of walking
	// the list from the top. Inside a device-side island most of the
	// list is unreachable, and the walk (reporterMissLimit × ackTimeout
	// per dead candidate, restarted every reporterHomeInterval) would
	// keep freshness flapping at the island's controller.
	sticky   bool
	lastGood int // last candidate index that acked; -1 if none
}

// newReporter wires a reporter onto port. The port's envelope handler
// is installed here; sensors own the whole port.
func newReporter(port simnet.Port, candidates candidateList) *reporter {
	if candidates.n == 0 {
		panic(fmt.Sprintf("core: reporter on %s has no collector candidates", port.ID()))
	}
	r := &reporter{
		port:          port,
		candidateList: candidates,
		pending:       make(map[uint64]*simnet.Timer),
		lastGood:      -1,
	}
	r.timeoutFn = r.onAckTimeout
	port.OnEnvelope(func(_ simnet.NodeID, e *simnet.Envelope) {
		if e.Kind == envReadingAck {
			r.onAck(e.A)
		}
	})
	if r.n > 1 {
		// Periodically fail back to the primary so a recovered
		// collector is rediscovered (otherwise the reporter would stay
		// on a working backup forever).
		port.Every(reporterHomeInterval, func() {
			r.cur = 0
			r.misses = 0
		})
	}
	return r
}

// target returns the current collector candidate.
func (r *reporter) target() simnet.NodeID {
	if r.cur == 0 {
		return r.primary
	}
	if r.ordered == nil {
		r.ordered = r.order()
	}
	return r.ordered[r.cur]
}

// onAck settles one acknowledged reading.
func (r *reporter) onAck(seq uint64) {
	if t, pending := r.pending[seq]; pending {
		t.Stop()
		delete(r.pending, seq)
		r.misses = 0
		r.lastGood = r.cur
	}
}

// onAckTimeout counts a miss for an unacknowledged reading and rotates
// to the next collector candidate past the miss limit.
func (r *reporter) onAckTimeout(seq uint64) {
	if _, still := r.pending[seq]; !still {
		return
	}
	delete(r.pending, seq)
	r.misses++
	if r.misses >= reporterMissLimit && r.n > 1 {
		if r.sticky && r.lastGood >= 0 && r.lastGood != r.cur {
			r.cur = r.lastGood
		} else {
			if r.sticky && r.lastGood == r.cur {
				r.lastGood = -1 // the remembered candidate died; walk again
			}
			r.cur = (r.cur + 1) % r.n
		}
		r.misses = 0
	}
}

// send ships one item to the current candidate and arms the failover
// timer.
func (r *reporter) send(item dataflow.Item) {
	r.seq++
	seq := r.seq
	r.port.Send(r.target(), readingMsg{Seq: seq, Item: item})
	if r.bus.Active() {
		r.bus.Emit("sensor.report", string(r.port.ID()), 0, 0, "%s → %s", item.Key, r.target())
	}
	r.pending[seq] = r.port.AfterArg(ackTimeout, r.timeoutFn, seq)
}

// collector receives readings on a port, hands items to sink and acks
// them. Forwarding, storage and auditing live in the sink closure.
type collector struct {
	port simnet.Port
	sink func(item dataflow.Item, from simnet.NodeID)
}

// newCollector installs the collector's handler on port.
func newCollector(port simnet.Port, sink func(dataflow.Item, simnet.NodeID)) *collector {
	c := &collector{port: port, sink: sink}
	port.OnMessage(func(from simnet.NodeID, msg simnet.Message) {
		m, ok := msg.(readingMsg)
		if !ok {
			return
		}
		c.sink(m.Item, from)
		if m.Seq != 0 {
			c.port.SendEnvelope(from, simnet.Envelope{Kind: envReadingAck, A: m.Seq, Bytes: 12})
		}
	})
	return c
}

// itemTable is the simple latest-value store used by ML1–ML3
// collectors (a plain map, deliberately not replicated — that is the
// point of those maturity levels).
type itemTable struct {
	items map[string]dataflow.Item
}

func newItemTable() *itemTable {
	return &itemTable{items: make(map[string]dataflow.Item)}
}

func (t *itemTable) put(item dataflow.Item) {
	cur, ok := t.items[item.Key]
	if ok && cur.ProducedAt > item.ProducedAt {
		return // keep the newest payload
	}
	t.items[item.Key] = item
}

func (t *itemTable) get(key string) (dataflow.Item, bool) {
	item, ok := t.items[key]
	return item, ok
}
