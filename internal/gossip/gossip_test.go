package gossip

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// cluster builds n nodes running the protocol, all seeded through node 0.
func cluster(t testing.TB, sim *simnet.Sim, n int, cfg Config) []*Protocol {
	t.Helper()
	ps := make([]*Protocol, n)
	ids := make([]simnet.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = simnet.NodeID(fmt.Sprintf("n%d", i))
		ps[i] = New(sim.AddNode(ids[i]), cfg)
	}
	for i, p := range ps {
		if i == 0 {
			p.Start()
		} else {
			p.Start(ids[0])
		}
	}
	return ps
}

func fastCfg() Config {
	return Config{
		ProbeInterval:    200 * time.Millisecond,
		ProbeTimeout:     60 * time.Millisecond,
		SuspicionTimeout: 600 * time.Millisecond,
	}
}

func TestStatusString(t *testing.T) {
	if StatusAlive.String() != "alive" || StatusSuspect.String() != "suspect" || StatusDead.String() != "dead" {
		t.Fatal("status names wrong")
	}
	if Status(9).String() != "status(9)" {
		t.Fatal("unknown status name wrong")
	}
}

func TestOverridesRules(t *testing.T) {
	tests := []struct {
		name string
		u    Update
		cur  Member
		want bool
	}{
		{"alive needs higher inc over alive", Update{Status: StatusAlive, Incarnation: 1}, Member{Status: StatusAlive, Incarnation: 1}, false},
		{"alive higher inc beats alive", Update{Status: StatusAlive, Incarnation: 2}, Member{Status: StatusAlive, Incarnation: 1}, true},
		{"alive higher inc beats suspect", Update{Status: StatusAlive, Incarnation: 2}, Member{Status: StatusSuspect, Incarnation: 1}, true},
		{"alive same inc does not refute suspect", Update{Status: StatusAlive, Incarnation: 1}, Member{Status: StatusSuspect, Incarnation: 1}, false},
		{"strict: alive same inc stays dead", Update{Status: StatusAlive, Incarnation: 1}, Member{Status: StatusDead, Incarnation: 1}, false},
		{"strict: alive higher inc rejoins", Update{Status: StatusAlive, Incarnation: 2}, Member{Status: StatusDead, Incarnation: 1}, true},
		{"suspect same inc beats alive", Update{Status: StatusSuspect, Incarnation: 1}, Member{Status: StatusAlive, Incarnation: 1}, true},
		{"suspect same inc does not re-suspect", Update{Status: StatusSuspect, Incarnation: 1}, Member{Status: StatusSuspect, Incarnation: 1}, false},
		{"dead same inc beats suspect", Update{Status: StatusDead, Incarnation: 1}, Member{Status: StatusSuspect, Incarnation: 1}, true},
		{"dead never overrides dead", Update{Status: StatusDead, Incarnation: 9}, Member{Status: StatusDead, Incarnation: 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.u.overrides(tt.cur); got != tt.want {
				t.Fatalf("overrides = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestJoinConverges(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(2), simnet.WithDefaultLatency(2*time.Millisecond))
	ps := cluster(t, sim, 8, fastCfg())
	sim.RunUntil(3 * time.Second)
	for i, p := range ps {
		if got := p.AliveCount(); got != 8 {
			t.Fatalf("node %d sees %d alive, want 8; members=%v", i, got, p.Members())
		}
	}
}

func TestCrashDetected(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(3), simnet.WithDefaultLatency(2*time.Millisecond))
	ps := cluster(t, sim, 6, fastCfg())
	sim.RunUntil(3 * time.Second)

	sim.SetDown("n3", true)
	sim.RunUntil(10 * time.Second)

	for i, p := range ps {
		if i == 3 {
			continue
		}
		found := false
		for _, m := range p.Members() {
			if m.ID == "n3" {
				found = true
				if m.Status != StatusDead {
					t.Fatalf("node %d sees n3 as %v, want dead", i, m.Status)
				}
			}
		}
		if !found {
			t.Fatalf("node %d lost track of n3", i)
		}
	}
}

func TestRecoveryRejoins(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(4), simnet.WithDefaultLatency(2*time.Millisecond))
	ps := cluster(t, sim, 5, fastCfg())
	sim.RunUntil(3 * time.Second)

	sim.SetDown("n2", true)
	sim.RunUntil(10 * time.Second)
	sim.SetDown("n2", false)
	sim.RunUntil(20 * time.Second)

	for i, p := range ps {
		if got := p.AliveCount(); got != 5 {
			t.Fatalf("node %d sees %d alive after rejoin, want 5; members=%v", i, got, p.Members())
		}
	}
}

func TestPartitionSuspicionAndHeal(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(5), simnet.WithDefaultLatency(2*time.Millisecond))
	ps := cluster(t, sim, 6, fastCfg())
	sim.RunUntil(3 * time.Second)

	sim.Partition(
		[]simnet.NodeID{"n0", "n1", "n2"},
		[]simnet.NodeID{"n3", "n4", "n5"},
	)
	sim.RunUntil(10 * time.Second)
	// Each side should consider the other side dead.
	if got := ps[0].AliveCount(); got != 3 {
		t.Fatalf("n0 sees %d alive during partition, want 3", got)
	}
	if got := ps[4].AliveCount(); got != 3 {
		t.Fatalf("n4 sees %d alive during partition, want 3", got)
	}

	sim.HealPartition()
	// Probing alone cannot reconnect the sides (dead members are
	// never probed — a known SWIM property); the periodic push-pull
	// anti-entropy exchange targets dead members too, so both sides
	// reconverge on their own after the heal.
	sim.RunUntil(90 * time.Second)
	for i, p := range ps {
		if got := p.AliveCount(); got != 6 {
			t.Fatalf("node %d sees %d alive after heal, want 6 (anti-entropy reconvergence)", i, got)
		}
	}
}

// TestHealWithoutResurrection partitions one member of a three-node
// group away at serve's ratios (suspicion 4 × probe, anti-entropy
// 10 × probe) and heals it. No view may ever move a member from Dead
// back to Alive at the incarnation that was declared dead: only the
// member's own refutation at a newer incarnation undoes a verdict, or
// stale Alive echoes flip the view back and forth after the heal. And
// every view must be all-alive within 3 s of the heal and stay so.
func TestHealWithoutResurrection(t *testing.T) {
	const heal = 6 * time.Second
	cfg := Config{
		ProbeInterval:       200 * time.Millisecond,
		ProbeTimeout:        100 * time.Millisecond,
		SuspicionTimeout:    800 * time.Millisecond,
		AntiEntropyInterval: 2 * time.Second,
	}
	for seed := int64(1); seed <= 20; seed++ {
		sim := simnet.New(simnet.WithSeed(seed), simnet.WithDefaultLatency(time.Millisecond))
		ps := cluster(t, sim, 3, cfg)
		var settled time.Duration // the last change any view saw after the heal
		for _, p := range ps {
			p := p
			seen := map[simnet.NodeID]Member{}
			p.OnChange(func(m Member) {
				if prev, ok := seen[m.ID]; ok && prev.Status == StatusDead && m.Status == StatusAlive && m.Incarnation == prev.Incarnation {
					t.Errorf("seed %d: %s resurrected %s at incarnation %d, t=%v", seed, p.ep.ID(), m.ID, m.Incarnation, sim.Now())
				}
				seen[m.ID] = m
				if sim.Now() > heal {
					settled = sim.Now()
				}
			})
		}
		sim.RunUntil(3 * time.Second)
		sim.Partition([]simnet.NodeID{"n0", "n1"}, []simnet.NodeID{"n2"})
		sim.RunUntil(heal)
		sim.HealPartition()
		sim.RunUntil(30 * time.Second)
		for i, p := range ps {
			if got := p.AliveCount(); got != 3 {
				t.Fatalf("seed %d: n%d sees %d alive at the end, want 3; members=%v", seed, i, got, p.Members())
			}
		}
		if settled > heal+3*time.Second {
			t.Errorf("seed %d: membership still changing %v after the heal", seed, settled-heal)
		}
	}
}

func TestOnChangeFires(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(6), simnet.WithDefaultLatency(2*time.Millisecond))
	ids := []simnet.NodeID{"a", "b"}
	pa := New(sim.AddNode(ids[0]), fastCfg())
	pb := New(sim.AddNode(ids[1]), fastCfg())
	var events []string
	pa.OnChange(func(m Member) { events = append(events, fmt.Sprintf("%s:%s", m.ID, m.Status)) })
	pa.Start()
	pb.Start("a")
	sim.RunUntil(2 * time.Second)
	if len(events) == 0 || events[0] != "b:alive" {
		t.Fatalf("events = %v, want first b:alive", events)
	}
	sim.SetDown("b", true)
	sim.RunUntil(15 * time.Second)
	last := events[len(events)-1]
	if last != "b:dead" {
		t.Fatalf("last event = %q, want b:dead (all: %v)", last, events)
	}
}

func TestAliveSorted(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(7), simnet.WithDefaultLatency(2*time.Millisecond))
	ps := cluster(t, sim, 4, fastCfg())
	sim.RunUntil(3 * time.Second)
	alive := ps[0].Alive()
	for i := 1; i < len(alive); i++ {
		if alive[i-1] >= alive[i] {
			t.Fatalf("Alive() not sorted: %v", alive)
		}
	}
}

func TestFalsePositiveRefutation(t *testing.T) {
	// Degrade (don't kill) the link to one node so probes are slow but
	// the node is alive: suspicion should be refuted, and the member
	// must not stay dead forever.
	sim := simnet.New(simnet.WithSeed(8), simnet.WithDefaultLatency(2*time.Millisecond))
	cfg := fastCfg()
	cfg.SuspicionTimeout = 2 * time.Second // generous refutation window
	ps := cluster(t, sim, 4, cfg)
	sim.RunUntil(3 * time.Second)

	// n1 becomes slow to everyone for a while: 100ms latency exceeds
	// the 60ms probe timeout, so direct probes fail, but indirect
	// probes also take >timeout... suspicion will start. n1 refutes via
	// incarnation bump carried on its own probes.
	for _, other := range []simnet.NodeID{"n0", "n2", "n3"} {
		sim.DegradeLink("n1", other, 100*time.Millisecond, 0)
	}
	sim.RunUntil(8 * time.Second)
	for _, other := range []simnet.NodeID{"n0", "n2", "n3"} {
		sim.RestoreLink("n1", other)
	}
	sim.RunUntil(20 * time.Second)

	for i, p := range ps {
		for _, m := range p.Members() {
			if m.ID == "n1" && m.Status == StatusDead {
				t.Fatalf("node %d declared slow-but-alive n1 dead permanently", i)
			}
		}
	}
}

func TestStopHaltsProbing(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(9))
	pa := New(sim.AddNode("a"), fastCfg())
	pb := New(sim.AddNode("b"), fastCfg())
	pa.Start()
	pb.Start("a")
	sim.RunUntil(2 * time.Second)
	pa.Stop()
	pb.Stop()
	sim.RunUntil(3 * time.Second) // drain in-flight probes and their acks
	before := sim.Stats().Sent
	sim.RunUntil(6 * time.Second)
	if after := sim.Stats().Sent; after != before {
		t.Fatalf("messages still flowing after Stop: %d → %d", before, after)
	}
}

func TestScalesTo50Nodes(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(10), simnet.WithDefaultLatency(2*time.Millisecond))
	ps := cluster(t, sim, 50, Config{
		ProbeInterval:    500 * time.Millisecond,
		ProbeTimeout:     100 * time.Millisecond,
		SuspicionTimeout: 2 * time.Second,
	})
	sim.RunUntil(30 * time.Second)
	for i, p := range ps {
		if got := p.AliveCount(); got != 50 {
			t.Fatalf("node %d sees %d alive, want 50", i, got)
		}
	}
}

func TestGracefulLeavePropagatesImmediately(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(14), simnet.WithDefaultLatency(2*time.Millisecond))
	ps := cluster(t, sim, 5, fastCfg())
	sim.RunUntil(3 * time.Second)

	leaveAt := sim.Now()
	ps[2].Leave()
	// Well under the suspicion timeout (600ms in fastCfg), everyone
	// knows: leave is one direct broadcast, not a detection.
	sim.RunUntil(leaveAt + 100*time.Millisecond)
	for i, p := range ps {
		if i == 2 {
			continue
		}
		for _, m := range p.Members() {
			if m.ID == "n2" && m.Status != StatusDead {
				t.Fatalf("node %d sees leaver as %v after 100ms", i, m.Status)
			}
		}
	}

	// The leaver must not refute its own death via anti-entropy.
	sim.RunUntil(leaveAt + 30*time.Second)
	for i, p := range ps {
		if i == 2 {
			continue
		}
		if got := p.AliveCount(); got != 4 {
			t.Fatalf("node %d sees %d alive long after leave, want 4", i, got)
		}
	}
}

func TestLeaverCanRejoinAfterRestart(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(15), simnet.WithDefaultLatency(2*time.Millisecond))
	ps := cluster(t, sim, 4, fastCfg())
	sim.RunUntil(3 * time.Second)
	ps[1].Leave()
	sim.RunUntil(5 * time.Second)
	// Restart: the node crashes and recovers, which re-seeds and bumps
	// the incarnation past the death claim.
	sim.SetDown("n1", true)
	sim.RunUntil(6 * time.Second)
	sim.SetDown("n1", false)
	sim.RunUntil(30 * time.Second)
	for i, p := range ps {
		if got := p.AliveCount(); got != 4 {
			t.Fatalf("node %d sees %d alive after rejoin, want 4", i, got)
		}
	}
}

func TestAntiEntropyDisabled(t *testing.T) {
	// With anti-entropy disabled, a healed partition does NOT
	// reconverge (the classic SWIM limitation) — this pins down that
	// the reconvergence in TestPartitionSuspicionAndHeal really comes
	// from the anti-entropy exchange.
	sim := simnet.New(simnet.WithSeed(12), simnet.WithDefaultLatency(2*time.Millisecond))
	cfg := fastCfg()
	cfg.AntiEntropyInterval = -1
	ps := cluster(t, sim, 4, cfg)
	sim.RunUntil(3 * time.Second)
	sim.Partition([]simnet.NodeID{"n0", "n1"}, []simnet.NodeID{"n2", "n3"})
	sim.RunUntil(10 * time.Second)
	sim.HealPartition()
	sim.RunUntil(60 * time.Second)
	if got := ps[0].AliveCount(); got == 4 {
		t.Fatal("sides reconverged without anti-entropy; the mechanism under test is not what reconnects them")
	}
}

func TestAntiEntropyConvergesTwoIsolatedGroups(t *testing.T) {
	// Two nodes that never join each other but learn of one another
	// via a third node's sync converge through push-pull exchanges.
	sim := simnet.New(simnet.WithSeed(13), simnet.WithDefaultLatency(2*time.Millisecond))
	cfg := fastCfg()
	cfg.AntiEntropyInterval = time.Second
	a := New(sim.AddNode("a"), cfg)
	b := New(sim.AddNode("b"), cfg)
	c := New(sim.AddNode("c"), cfg)
	a.Start()
	b.Start("a")
	c.Start("a") // b and c never directly seed each other
	sim.RunUntil(10 * time.Second)
	if got := b.AliveCount(); got != 3 {
		t.Fatalf("b sees %d alive, want 3", got)
	}
	if got := c.AliveCount(); got != 3 {
		t.Fatalf("c sees %d alive, want 3", got)
	}
}

func TestMessageSizes(t *testing.T) {
	us := []Update{{ID: "x", Status: StatusAlive}}
	if (pingMsg{Updates: us}).Size() <= (pingMsg{}).Size() {
		t.Fatal("updates should add to message size")
	}
	if (joinMsg{}).Size() <= 0 || (joinAckMsg{}).Size() <= 0 {
		t.Fatal("sizes must be positive")
	}
	if (ackMsg{Updates: us}).Size() != 16+24 {
		t.Fatalf("ack size = %d", (ackMsg{Updates: us}).Size())
	}
	if (pingReqMsg{}).Size() != 48 {
		t.Fatalf("pingReq size = %d", (pingReqMsg{}).Size())
	}
}

// TestBusInstrumentation checks that an attached obs bus sees probe
// round-trip spans, suspicion transitions, and graceful leaves.
func TestBusInstrumentation(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(21), simnet.WithDefaultLatency(2*time.Millisecond))
	ps := cluster(t, sim, 3, fastCfg())
	bus := obs.NewBus(sim.Now)
	for _, p := range ps {
		p.SetBus(bus)
	}
	sub := bus.Subscribe(4096)
	defer sub.Close()

	sim.RunUntil(5 * time.Second)
	sim.SetDown("n2", true)
	sim.RunUntil(10 * time.Second)
	ps[1].Leave()
	sim.RunUntil(11 * time.Second)

	kinds := map[string]int{}
	probeRTT := time.Duration(0)
	for _, ev := range sub.Events() {
		kinds[ev.Kind]++
		if ev.Kind == "gossip.probe" {
			if ev.Dur <= 0 {
				t.Fatalf("probe span without duration: %+v", ev)
			}
			probeRTT = ev.Dur
		}
	}
	if kinds["gossip.probe"] == 0 {
		t.Fatal("no probe round-trip spans observed")
	}
	if probeRTT <= 0 || probeRTT > time.Second {
		t.Fatalf("implausible probe RTT %v", probeRTT)
	}
	if kinds["gossip.suspect"] == 0 || kinds["gossip.dead"] == 0 {
		t.Fatalf("missing suspicion transitions: %v", kinds)
	}
	if kinds["gossip.leave"] != 1 {
		t.Fatalf("leave events = %d, want 1", kinds["gossip.leave"])
	}
}

// TestJoined: a seeded node has joined once a peer answers it — the
// seed's join ack, or when the join was lost an ack to one of its
// probes — and a node without seeds (or seeded only by itself) has
// joined at Start.
func TestJoined(t *testing.T) {
	t.Run("seedless at start", func(t *testing.T) {
		sim := simnet.New(simnet.WithSeed(1))
		solo, self := New(sim.AddNode("a"), fastCfg()), New(sim.AddNode("b"), fastCfg())
		if solo.Joined() {
			t.Fatal("joined before Start")
		}
		solo.Start()
		self.Start("b")
		if !solo.Joined() || !self.Joined() {
			t.Fatalf("joined at Start: no seeds %v, seeded by itself %v, want both true", solo.Joined(), self.Joined())
		}
	})
	t.Run("join ack", func(t *testing.T) {
		sim := simnet.New(simnet.WithSeed(2), simnet.WithDefaultLatency(2*time.Millisecond))
		pa, pb := New(sim.AddNode("a"), fastCfg()), New(sim.AddNode("b"), fastCfg())
		pa.Start()
		pb.Start("a")
		if pb.Joined() {
			t.Fatal("joined before the seed answered")
		}
		// One round trip, well before the first probe tick at 200 ms.
		sim.RunUntil(10 * time.Millisecond)
		if !pb.Joined() {
			t.Fatal("not joined after the seed's join ack")
		}
	})
	t.Run("probe ack", func(t *testing.T) {
		sim := simnet.New(simnet.WithSeed(3), simnet.WithDefaultLatency(2*time.Millisecond))
		pa, pb := New(sim.AddNode("a"), fastCfg()), New(sim.AddNode("b"), fastCfg())
		sim.Partition([]simnet.NodeID{"a"}, []simnet.NodeID{"b"})
		pa.Start()
		pb.Start("a")
		sim.RunUntil(100 * time.Millisecond)
		sim.HealPartition()
		// The join was lost and the seed does not know b: nothing can
		// answer b before its first probe at 200 ms.
		sim.RunUntil(199 * time.Millisecond)
		if pb.Joined() {
			t.Fatal("joined with the join lost and no probe sent")
		}
		sim.RunUntil(210 * time.Millisecond)
		if !pb.Joined() {
			t.Fatal("not joined after the seed acked b's first probe")
		}
	})
	t.Run("recovery", func(t *testing.T) {
		sim := simnet.New(simnet.WithSeed(4), simnet.WithDefaultLatency(2*time.Millisecond))
		pa, pb := New(sim.AddNode("a"), fastCfg()), New(sim.AddNode("b"), fastCfg())
		pa.Start()
		pb.Start("a")
		sim.RunUntil(time.Second)
		if !pb.Joined() {
			t.Fatal("not joined before the crash")
		}
		sim.SetDown("a", true)
		sim.SetDown("b", true)
		sim.RunUntil(2 * time.Second)
		sim.SetDown("a", false)
		sim.SetDown("b", false)
		if pb.Joined() {
			t.Fatal("joined after recovery before the seed answered the rejoin")
		}
		if !pa.Joined() {
			t.Fatal("a seedless node, with no one to rejoin through, lost Joined on recovery")
		}
		// One round trip, well before b's next probe tick.
		sim.RunUntil(2*time.Second + 10*time.Millisecond)
		if !pb.Joined() {
			t.Fatal("not joined after the seed's ack to the rejoin")
		}
	})
}
