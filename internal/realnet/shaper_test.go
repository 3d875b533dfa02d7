package realnet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/simnet"
)

// shaperHarness boots a small live loopback cluster with per-node
// receive counters for the shaper edge-case tests.
type shaperHarness struct {
	t       *testing.T
	cluster *Cluster
	inj     *fault.Injector
	mu      sync.Mutex
	recv    map[simnet.NodeID]int
}

func newShaperHarness(t *testing.T, ids ...simnet.NodeID) *shaperHarness {
	t.Helper()
	RegisterWireType(pingMsg{})
	h := &shaperHarness{
		t:       t,
		cluster: NewCluster(ClusterConfig{Seed: 7}),
		recv:    make(map[simnet.NodeID]int),
	}
	for _, id := range ids {
		id := id
		n, err := h.cluster.AddNode(id)
		if err != nil {
			t.Fatal(err)
		}
		n.OnMessage(func(simnet.NodeID, simnet.Message) {
			h.mu.Lock()
			h.recv[id]++
			h.mu.Unlock()
		})
	}
	h.inj = fault.NewInjector(h.cluster)
	if err := h.cluster.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.cluster.Close)
	return h
}

// inject applies ev now, under the world lock as an armed event would.
func (h *shaperHarness) inject(ev fault.Event) {
	h.cluster.WorldLock().Lock()
	defer h.cluster.WorldLock().Unlock()
	h.inj.Inject(ev)
}

func (h *shaperHarness) received(id simnet.NodeID) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.recv[id]
}

func (h *shaperHarness) waitFor(what string, budget time.Duration, cond func() bool) {
	h.t.Helper()
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatalf("timed out waiting for %s", what)
}

// TestShaperPartitionDuringDelayedPacket cuts a partition while a
// packet sits in a link's delay queue: the delivery-time recheck must
// drop it, exactly as simnet drops in-flight messages when the
// partition lands before delivery.
func TestShaperPartitionDuringDelayedPacket(t *testing.T) {
	h := newShaperHarness(t, "a", "b")
	h.cluster.DegradeLink("a", "b", 200*time.Millisecond, 0)

	a := h.cluster.node("a")
	if !a.Send("b", pingMsg{N: 1}) {
		t.Fatal("send into delay queue refused")
	}
	// Partition before the 200ms delay elapses.
	h.cluster.Partition([]simnet.NodeID{"a"}, []simnet.NodeID{"b"})
	time.Sleep(300 * time.Millisecond)
	if got := h.received("b"); got != 0 {
		t.Fatalf("delayed packet crossed a partition: b received %d", got)
	}
	if s := a.NetStats(); s.Dropped == 0 || s.Delayed != 1 {
		t.Fatalf("stats = %+v, want the delayed packet counted and dropped", s)
	}

	// Heal: fresh traffic flows again (the queued packet stays dead).
	h.cluster.HealPartition()
	h.waitFor("traffic after heal", 2*time.Second, func() bool {
		a.Send("b", pingMsg{N: 2})
		return h.received("b") > 0
	})
}

// TestLinkRestoreWithoutDegrade exercises KindLinkRestore with no prior
// degrade: a pure no-op, traffic keeps flowing.
func TestLinkRestoreWithoutDegrade(t *testing.T) {
	h := newShaperHarness(t, "a", "b")
	h.inject(fault.Event{Kind: fault.KindLinkRestore, From: "a", To: "b"})

	a := h.cluster.node("a")
	h.waitFor("traffic after bare restore", 2*time.Second, func() bool {
		a.Send("b", pingMsg{N: 1})
		return h.received("b") > 0
	})
	if s := a.NetStats(); s.Shaped != 0 || s.Dropped != 0 {
		t.Fatalf("bare restore shaped traffic: %+v", s)
	}
}

// TestOverlappingPartitionsSingleHeal layers two partitions (the second
// replaces the first, simnet semantics) and heals once: one
// KindPartitionEnd must restore full reachability.
func TestOverlappingPartitionsSingleHeal(t *testing.T) {
	h := newShaperHarness(t, "a", "b", "c")
	h.inject(fault.Event{Kind: fault.KindPartitionStart, Groups: [][]simnet.NodeID{{"a"}, {"b", "c"}}})
	h.inject(fault.Event{Kind: fault.KindPartitionStart, Groups: [][]simnet.NodeID{{"a", "b"}, {"c"}}})

	// Second partition replaced the first: a↔b flows, c is cut off.
	a, c := h.cluster.node("a"), h.cluster.node("c")
	if !a.Send("b", pingMsg{N: 1}) {
		t.Fatal("replacement partition still isolates a from b")
	}
	if a.Send("c", pingMsg{N: 1}) {
		t.Fatal("send across partition succeeded")
	}
	if c.Send("a", pingMsg{N: 1}) {
		t.Fatal("send across partition succeeded (reverse)")
	}

	// One heal undoes everything.
	h.inject(fault.Event{Kind: fault.KindPartitionEnd})
	h.waitFor("a→c traffic after heal", 2*time.Second, func() bool {
		a.Send("c", pingMsg{N: 2})
		return h.received("c") > 0
	})
}

// TestCrashPlusPartitionSameNode composes a crash with a partition on
// one node: recovery from the crash must not pierce the still-standing
// partition, and healing the partition alone must not revive the
// crashed node.
func TestCrashPlusPartitionSameNode(t *testing.T) {
	h := newShaperHarness(t, "a", "b")
	h.inject(fault.Event{Kind: fault.KindCrash, Node: "b"})
	h.inject(fault.Event{Kind: fault.KindPartitionStart, Groups: [][]simnet.NodeID{{"a"}, {"b"}}})

	b := h.cluster.node("b")
	if !b.Down() {
		t.Fatal("crash not applied")
	}
	// Recover the crash; the partition still stands.
	h.inject(fault.Event{Kind: fault.KindRecover, Node: "b"})
	if b.Down() {
		t.Fatal("recover not applied")
	}
	a := h.cluster.node("a")
	if a.Send("b", pingMsg{N: 1}) {
		t.Fatal("send crossed a partition after crash recovery")
	}
	time.Sleep(50 * time.Millisecond)
	if got := h.received("b"); got != 0 {
		t.Fatalf("partitioned node received %d datagrams", got)
	}

	// Heal: now traffic flows.
	h.inject(fault.Event{Kind: fault.KindPartitionEnd})
	h.waitFor("traffic after heal", 2*time.Second, func() bool {
		a.Send("b", pingMsg{N: 2})
		return h.received("b") > 0
	})
}

// TestSeededLossIsReproducible sends the same traffic through a lossy
// link on two clusters sharing a seed and asserts the surviving
// pattern is identical — the seeded-loss reproducibility contract.
func TestSeededLossIsReproducible(t *testing.T) {
	pattern := func() []bool {
		h := newShaperHarness(t, "a", "b")
		h.cluster.DegradeLink("a", "b", 0, 0.5)
		a := h.cluster.node("a")
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, a.Send("b", pingMsg{N: i}))
		}
		return out
	}
	p1, p2 := pattern(), pattern()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("loss pattern diverged at packet %d with identical seeds", i)
		}
	}
	var kept int
	for _, ok := range p1 {
		if ok {
			kept++
		}
	}
	if kept == 0 || kept == len(p1) {
		t.Fatalf("loss 0.5 kept %d/%d packets — shaper not applying loss", kept, len(p1))
	}
}
