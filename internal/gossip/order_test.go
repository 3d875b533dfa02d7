package gossip

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
)

// solo builds one protocol instance that knows n-1 peers which exist
// nowhere: everything it sends is dropped at once, so a test can call
// its per-message paths directly, with a full member table and a full
// broadcast queue and no network to run.
func solo(tb testing.TB, n int, cfg Config) *Protocol {
	tb.Helper()
	sim := simnet.New(simnet.WithSeed(1))
	p := New(sim.AddNode("n000"), cfg)
	// Shuffled, so first discovery inserts all over the sorted slice.
	for _, i := range rand.New(rand.NewSource(int64(n))).Perm(n - 1) {
		p.applyUpdate(Update{ID: simnet.NodeID(fmt.Sprintf("n%03d", i+1)), Status: StatusAlive})
	}
	return p
}

// queueModel is the broadcast queue as it was before the counting sort
// and bits.Len: a linear replace-or-append, sort.SliceStable on every
// take, and the limit in floating point. The property test drives it
// and the Protocol with one operation sequence and requires equal
// returned updates and equal surviving queues at every step.
type queueModel struct {
	queue []broadcast
}

func (m *queueModel) enqueue(u Update) {
	for i, b := range m.queue {
		if b.update.ID == u.ID {
			m.queue[i] = broadcast{update: u}
			return
		}
	}
	m.queue = append(m.queue, broadcast{update: u})
}

func (m *queueModel) take(members int) []Update {
	if len(m.queue) == 0 {
		return nil
	}
	sort.SliceStable(m.queue, func(i, j int) bool { return m.queue[i].transmits < m.queue[j].transmits })
	limit := retransmitMult * int(math.Ceil(math.Log2(float64(members+1))))
	var out []Update
	kept := m.queue[:0]
	for _, b := range m.queue {
		if len(out) < maxPiggyback {
			out = append(out, b.update)
			b.transmits++
		}
		if b.transmits < limit {
			kept = append(kept, b)
		}
	}
	m.queue = kept
	return out
}

func TestQueueMatchesStableSortModel(t *testing.T) {
	shapes := []struct {
		name            string
		members, ids    int // table size; ids the enqueues draw from
		enqueuePerMille int
		joinPerMille    int // a new member: one more enqueue, maybe a higher limit
	}{
		{"city", 200, 220, 300, 0},
		{"replace-heavy", 40, 12, 700, 0},
		{"drops", 3, 30, 500, 0},
		{"small-table", 16, 40, 400, 0},
		{"few-ids", 200, 20, 50, 0},
		{"merges", 200, 220, 5, 0},
		{"joins", 2, 20, 20, 60},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				p := solo(t, sh.members, Config{})
				m := &queueModel{}
				m.queue = slices.Clone(p.queue)
				rng := rand.New(rand.NewSource(seed))
				joined := 0
				for step := 0; step < 3000; step++ {
					if sh.joinPerMille > 0 && rng.Intn(1000) < sh.joinPerMille {
						u := Update{ID: simnet.NodeID(fmt.Sprintf("j%04d", joined)), Status: StatusAlive}
						joined++
						p.applyUpdate(u)
						m.enqueue(u)
					} else if rng.Intn(1000) < sh.enqueuePerMille {
						u := Update{
							ID:          simnet.NodeID(fmt.Sprintf("n%03d", rng.Intn(sh.ids))),
							Status:      Status(1 + rng.Intn(3)),
							Incarnation: uint64(rng.Intn(4)),
						}
						p.enqueue(u)
						m.enqueue(u)
					} else {
						got, want := p.takePiggyback(), m.take(len(p.members))
						if !slices.Equal(got, want) {
							t.Fatalf("seed %d step %d: took %v, model took %v", seed, step, got, want)
						}
					}
					if len(p.queue) != len(m.queue) {
						t.Fatalf("seed %d step %d: queue holds %d, model %d", seed, step, len(p.queue), len(m.queue))
					}
					for i, b := range p.queue {
						if b != m.queue[i] {
							t.Fatalf("seed %d step %d: queue[%d] = %+v, model %+v", seed, step, i, b, m.queue[i])
						}
					}
				}
			}
		})
	}
}

// TestSortQueuePastSmallCounts drives sortQueue's spill past its
// 64-slot count array directly: transmits reach 64 only in a group of
// more than 2^21 members, which no model run can afford.
func TestSortQueuePastSmallCounts(t *testing.T) {
	p := solo(t, 2, Config{})
	rng := rand.New(rand.NewSource(1))
	p.queue = p.queue[:0]
	for i := 0; i < 300; i++ {
		p.queue = append(p.queue, broadcast{
			update:    Update{ID: simnet.NodeID(fmt.Sprintf("n%03d", i))},
			transmits: rng.Intn(100),
		})
	}
	want := slices.Clone(p.queue)
	slices.SortStableFunc(want, func(a, b broadcast) int { return a.transmits - b.transmits })
	p.sortQueue()
	if !slices.Equal(p.queue, want) {
		t.Fatalf("sortQueue differs from a stable sort by transmits")
	}
}

// requireSortedMembers asserts the invariant of Protocol.sorted: the
// map's values, each once, in id order.
func requireSortedMembers(t *testing.T, p *Protocol, when string) {
	t.Helper()
	ids := make([]simnet.NodeID, 0, len(p.members))
	for id := range p.members {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if len(p.sorted) != len(ids) {
		t.Fatalf("%s: %s has %d sorted members for %d in the map", when, p.ep.ID(), len(p.sorted), len(ids))
	}
	for i, id := range ids {
		if p.sorted[i] != p.members[id] {
			t.Fatalf("%s: %s sorted[%d] is %s, want the map's %s", when, p.ep.ID(), i, p.sorted[i].ID, id)
		}
	}
}

func TestSortedMembersTrackMap(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(21), simnet.WithDefaultLatency(2*time.Millisecond))
	cfg := fastCfg()
	cfg.SuspicionTimeout = 2 * time.Second
	// Twelve nodes: n10 and n11 sort between n1 and n2, so discovery
	// order and id order differ on every node.
	ps := cluster(t, sim, 12, cfg)
	seen := map[Status]bool{}
	for _, p := range ps {
		p := p
		p.OnChange(func(m Member) {
			seen[m.Status] = true
			requireSortedMembers(t, p, "on change")
		})
	}
	check := func(when string) {
		t.Helper()
		for _, p := range ps {
			requireSortedMembers(t, p, when)
		}
	}
	sim.RunUntil(3 * time.Second)
	check("after join")
	if got := len(ps[7].sorted); got != 12 {
		t.Fatalf("n7 knows %d members after join, want 12", got)
	}

	// Suspect then refute: n4 turns slow, not dead.
	others := []simnet.NodeID{"n0", "n1", "n2", "n3", "n5", "n6", "n7", "n8", "n9", "n10", "n11"}
	for _, o := range others {
		sim.DegradeLink("n4", o, 100*time.Millisecond, 0)
	}
	sim.RunUntil(6 * time.Second)
	for _, o := range others {
		sim.RestoreLink("n4", o)
	}
	sim.RunUntil(12 * time.Second)
	check("after refutation")
	if ps[4].incarnation == 0 {
		t.Fatal("n4 never refuted: the scenario no longer reaches suspicion")
	}

	// Suspect then dead, then onRecover: the table resets to self.
	sim.SetDown("n10", true)
	sim.RunUntil(20 * time.Second)
	check("after crash")
	sim.SetDown("n10", false)
	if got := ps[10].sorted; len(got) < 1 || len(got) > 2 || len(ps[10].members) != len(got) {
		t.Fatalf("n10 restarted knowing %d members (map %d), want itself and its seed at most", len(got), len(ps[10].members))
	}
	check("at recover")
	sim.RunUntil(30 * time.Second)
	check("after rejoin")

	ps[2].Leave()
	check("at leave")
	sim.RunUntil(35 * time.Second)
	check("after leave")
	for _, st := range []Status{StatusAlive, StatusSuspect, StatusDead} {
		if !seen[st] {
			t.Fatalf("no member ever turned %v: the scenario lost a transition", st)
		}
	}
}

// TestPerMessageAllocations gates what the per-message paths allocate
// at city size: only the slices a message must own.
func TestPerMessageAllocations(t *testing.T) {
	p := solo(t, 200, Config{})
	var state []Update
	if n := testing.AllocsPerRun(100, func() { state = p.fullState() }); n != 1 {
		t.Errorf("fullState: %v allocs, want 1 (the slice)", n)
	}
	if len(state) != 200 || !slices.IsSortedFunc(state, func(a, b Update) int {
		return strings.Compare(string(a.ID), string(b.ID))
	}) {
		t.Fatalf("fullState returned %d updates, want 200 in id order", len(state))
	}
	if n := testing.AllocsPerRun(100, p.antiEntropy); n > 2 {
		t.Errorf("antiEntropy: %v allocs, want at most 2 (state + boxed message)", n)
	}
	// 199 queued updates at 24 transmits each outlast the runs below.
	took := 0
	if n := testing.AllocsPerRun(100, func() { took += len(p.takePiggyback()) }); n > 1 {
		t.Errorf("takePiggyback: %v allocs, want at most 1 (the updates)", n)
	}
	if took != 101*maxPiggyback {
		t.Fatalf("takePiggyback carried %d updates over 101 calls, want a full message each", took)
	}
	if n := testing.AllocsPerRun(100, func() { p.nextProbeTarget() }); n != 0 {
		t.Errorf("nextProbeTarget: %v allocs, want 0", n)
	}
}

// modelAntiEntropy is antiEntropy as it was: collect the other ids from
// the map, sort them, draw one.
func modelAntiEntropy(p *Protocol) {
	var pool []simnet.NodeID
	for id := range p.members {
		if id != p.ep.ID() {
			pool = append(pool, id)
		}
	}
	if len(pool) == 0 {
		return
	}
	slices.Sort(pool)
	target := pool[p.ep.Rand().Intn(len(pool))]
	p.ep.Send(target, syncMsg{Members: p.fullState()})
}

// TestAntiEntropyMatchesSortedPoolModel runs the indexed target choice
// and the model on twin sims, for a self that sorts first, in the
// middle and last: same draws, same targets, same arrival order.
func TestAntiEntropyMatchesSortedPoolModel(t *testing.T) {
	for _, self := range []simnet.NodeID{"a", "m", "z"} {
		var synced [2][]simnet.NodeID
		for leg, exchange := range []func(*Protocol){(*Protocol).antiEntropy, modelAntiEntropy} {
			leg := leg
			sim := simnet.New(simnet.WithSeed(5), simnet.WithDefaultLatency(2*time.Millisecond))
			p := New(sim.AddNode(self), Config{})
			exchange(p) // alone: no draw, no send
			for _, id := range []simnet.NodeID{"y", "b", "o", "c", "n"} {
				id := id
				sim.AddNode(id).OnMessage(func(simnet.NodeID, simnet.Message) { synced[leg] = append(synced[leg], id) })
				p.applyUpdate(Update{ID: id, Status: StatusAlive})
			}
			for i := 0; i < 40; i++ {
				exchange(p)
				sim.RunUntil(sim.Now() + time.Second)
			}
		}
		if len(synced[0]) != 40 || !slices.Equal(synced[0], synced[1]) {
			t.Fatalf("self %q: synced with %v, model with %v", self, synced[0], synced[1])
		}
	}
}
