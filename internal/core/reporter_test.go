package core

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dataflow"
	"repro/internal/simnet"
	"repro/internal/space"
)

// eagerOrder is the failover list a sensor used to be handed at wiring
// time, kept as the reference the deferred order is checked against:
// every placed edge node, stable-sorted by distance from the sensor,
// read from the map entity by entity.
func eagerOrder(sys *System, sensor simnet.NodeID) []simnet.NodeID {
	here, _ := sys.spaces.PlacementOf(string(sensor))
	type cand struct {
		d  float64
		id simnet.NodeID
	}
	var placed []cand
	for _, id := range sys.edgeIDs() {
		if pl, ok := sys.spaces.PlacementOf(string(id)); ok {
			placed = append(placed, cand{d: here.Position.Distance(pl.Position), id: id})
		}
	}
	sort.SliceStable(placed, func(i, j int) bool { return placed[i].d < placed[j].d })
	out := make([]simnet.NodeID, len(placed))
	for i, p := range placed {
		out[i] = p.id
	}
	return out
}

// TestDeferredOrderEqualsEager checks, for every sensor of the city
// smoke tier under both profiles, that what the reporter knows up front
// (primary, n) and what it would materialise on failover are exactly
// the list it used to be given.
func TestDeferredOrderEqualsEager(t *testing.T) {
	for name, cfg := range map[string]ScenarioConfig{
		"default":  CityScenarioSmoke(),
		"hardened": CityScenarioSmoke().Hardened(),
	} {
		cfg.Shards = 2
		sys := NewSystem(cfg, ML4)
		for _, rig := range sys.sensors {
			want := eagerOrder(sys, rig.id)
			r := rig.reporter
			if r.primary != want[0] || r.n != len(want) {
				t.Fatalf("%s %s: primary %s of %d, eager list starts %s of %d", name, rig.id, r.primary, r.n, want[0], len(want))
			}
			if got := r.order(); !slices.Equal(got, want) {
				t.Fatalf("%s %s: deferred order %v, eager %v", name, rig.id, got, want)
			}
		}
	}
}

// scriptPort is a Port on which nothing happens by itself: sends are
// recorded, the home-reset ticker is kept for the test to fire, and ack
// timers never expire. The test plays network and clock.
type scriptPort struct {
	simnet.Port // unused methods panic on the nil embedded Port
	sent        []simnet.NodeID
	home        func()
}

func (p *scriptPort) ID() simnet.NodeID                 { return "z0-t0" }
func (p *scriptPort) OnEnvelope(simnet.EnvelopeHandler) {}
func (p *scriptPort) Send(to simnet.NodeID, _ simnet.Message) bool {
	p.sent = append(p.sent, to)
	return true
}
func (p *scriptPort) AfterArg(time.Duration, func(uint64), uint64) *simnet.Timer {
	return simnet.NewExternalTimer(func() bool { return true })
}
func (p *scriptPort) Every(d time.Duration, fn func()) *simnet.Ticker {
	if d == reporterHomeInterval {
		p.home = fn
	}
	return simnet.NewExternalTicker(func() {})
}

// eagerWalk is the reporter's failover state machine over a list held
// from the start: the reference for which candidate each send goes to.
type eagerWalk struct {
	list                  []simnet.NodeID
	cur, misses, lastGood int
	sticky                bool
}

func (w *eagerWalk) ack() { w.misses, w.lastGood = 0, w.cur }

func (w *eagerWalk) miss() {
	w.misses++
	if w.misses < reporterMissLimit || len(w.list) < 2 {
		return
	}
	if w.sticky && w.lastGood >= 0 && w.lastGood != w.cur {
		w.cur = w.lastGood
	} else {
		if w.sticky && w.lastGood == w.cur {
			w.lastGood = -1
		}
		w.cur = (w.cur + 1) % len(w.list)
	}
	w.misses = 0
}

func (w *eagerWalk) home() { w.cur, w.misses = 0, 0 }

// TestReporterWalkMatchesEagerList drives a lazy reporter and the eager
// reference through the same random history of acks, missed acks and
// 30 s home resets, with and without sticky failback, and requires the
// same target for every send — and that the order was asked for once at
// most, and not at all if the reporter never left its primary.
func TestReporterWalkMatchesEagerList(t *testing.T) {
	world := space.NewMap()
	var edge []string
	for i, x := range []float64{40, 10, 30, 10, 20} { // a tie at 10
		id := "gw-" + string(rune('a'+i))
		world.Place(id, space.Point{X: x}, "")
		edge = append(edge, id)
	}
	rank := world.Rank(edge)
	want := []simnet.NodeID{"gw-b", "gw-d", "gw-e", "gw-c", "gw-a"}

	prop := func(seed int64, sticky bool, missBias uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		port := &scriptPort{}
		lazy := nearestFirst(rank, space.Point{})
		orders := 0
		deferred := lazy.order
		lazy.order = func() []simnet.NodeID { orders++; return deferred() }
		r := newReporter(port, lazy)
		r.sticky = sticky
		ref := &eagerWalk{list: want, lastGood: -1, sticky: sticky}

		left := false
		for step := 0; step < 200; step++ {
			if rng.Intn(12) == 0 {
				port.home()
				ref.home()
			}
			r.send(dataflow.Item{})
			if got := port.sent[len(port.sent)-1]; got != ref.list[ref.cur] {
				t.Logf("seed %d sticky %v step %d: sent to %s, eager list says %s", seed, sticky, step, got, ref.list[ref.cur])
				return false
			}
			left = left || ref.cur != 0
			if rng.Intn(256) < int(missBias) {
				r.onAckTimeout(r.seq)
				ref.miss()
			} else {
				r.onAck(r.seq)
				ref.ack()
			}
		}
		if orders > 1 || (orders == 1) != left {
			t.Logf("seed %d: order ran %d times, reporter left its primary: %v", seed, orders, left)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// countOrders wraps every sensor's deferred order with a counter.
func countOrders(sys *System) []atomic.Int32 {
	counts := make([]atomic.Int32, len(sys.sensors))
	for i, rig := range sys.sensors {
		i, deferred := i, rig.reporter.order
		rig.reporter.order = func() []simnet.NodeID {
			counts[i].Add(1)
			return deferred()
		}
	}
	return counts
}

// TestOrderRunsOnlyOnFailover runs the city smoke tier on two lanes: a
// fault-free run must never order the edge, and a faulted run orders it
// once at most per sensor — for some sensors, or the test shows nothing.
func TestOrderRunsOnlyOnFailover(t *testing.T) {
	cfg := CityScenarioSmoke()
	cfg.Shards = 2
	if testing.Short() {
		cfg.Zones, cfg.Duration = 12, 2*time.Minute
	}

	calm := cfg
	calm.Preset = FaultsNone
	sys := NewSystem(calm, ML4)
	counts := countOrders(sys)
	sys.Run()
	for i := range counts {
		if n := counts[i].Load(); n != 0 {
			t.Fatalf("fault-free run: %s ordered the edge %d times", sys.sensors[i].id, n)
		}
	}

	sys = NewSystem(cfg, ML4)
	counts = countOrders(sys)
	sys.Run()
	failedOver := 0
	for i := range counts {
		n := counts[i].Load()
		if n > 1 {
			t.Fatalf("%s ordered the edge %d times", sys.sensors[i].id, n)
		}
		failedOver += int(n)
	}
	if failedOver == 0 {
		t.Fatal("no sensor failed over under the heavy schedule; the test exercises nothing")
	}
	t.Logf("%d of %d sensors ordered the edge", failedOver, len(counts))
}

func TestReporterRejectsEmptyCandidates(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "z0-t0") || !strings.Contains(msg, "no collector candidates") {
			t.Fatalf("panic = %q, want one naming node z0-t0 and the empty list", msg)
		}
	}()
	newReporter(&scriptPort{}, fixedCandidates())
	t.Fatal("newReporter accepted an empty candidate list")
}
