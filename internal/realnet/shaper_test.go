package realnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
	recv    map[simnet.NodeID][]arrival
}

// arrival is one pingMsg a node received, and when.
type arrival struct {
	n  int
	at time.Time
}

func newShaperHarness(t *testing.T, ids ...simnet.NodeID) *shaperHarness {
	t.Helper()
	RegisterWireType(pingMsg{})
	h := &shaperHarness{
		t:       t,
		cluster: NewCluster(ClusterConfig{Seed: 7}),
		recv:    make(map[simnet.NodeID][]arrival),
	}
	for _, id := range ids {
		id := id
		n, err := h.cluster.AddNode(id)
		if err != nil {
			t.Fatal(err)
		}
		n.OnMessage(func(_ simnet.NodeID, m simnet.Message) {
			h.mu.Lock()
			h.recv[id] = append(h.recv[id], arrival{m.(pingMsg).N, time.Now()})
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

// inject applies ev now, on the cluster's loop as an armed event is,
// and waits for it.
func (h *shaperHarness) inject(ev fault.Event) {
	done := make(chan struct{})
	h.cluster.At(0, func() {
		h.inj.Inject(ev)
		close(done)
	})
	<-done
}

func (h *shaperHarness) received(id simnet.NodeID) int { return len(h.arrivals(id)) }

func (h *shaperHarness) arrivals(id simnet.NodeID) []arrival {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]arrival(nil), h.recv[id]...)
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

// TestArrivalsAtCrashedNodeAreDropped crashes b and sends it k
// datagrams: a, which cannot know, sends every one; b's socket takes
// them and counts each as dropped, as the simulator counts a message
// to a crashed node, and its handler receives none.
func TestArrivalsAtCrashedNodeAreDropped(t *testing.T) {
	const k = 5
	h := newShaperHarness(t, "a", "b")
	h.inject(fault.Event{Kind: fault.KindCrash, Node: "b"})
	a, b := h.cluster.node("a"), h.cluster.node("b")
	for i := 0; i < k; i++ {
		if !a.Send("b", pingMsg{N: i}) {
			t.Fatal("send to a crashed peer refused")
		}
	}
	h.waitFor("arrivals counted as dropped", 2*time.Second, func() bool { return b.NetStats().Dropped == k })
	if s := b.NetStats(); s.Received != 0 || s.Dropped != k || h.received("b") != 0 {
		t.Fatalf("crashed node: stats %+v, handler got %d; want %d dropped, none received", s, h.received("b"), k)
	}
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

// TestDelayLineFIFOPerLink drops a link's latency while a packet is in
// flight on it: the later packet, due sooner, must still arrive second.
// Another link's packets are not held behind that backlog.
func TestDelayLineFIFOPerLink(t *testing.T) {
	h := newShaperHarness(t, "a", "b", "c")
	a := h.cluster.node("a")
	a.ShapeLink("b", 200*time.Millisecond, 0)
	a.ShapeLink("c", 10*time.Millisecond, 0)
	if !a.Send("b", pingMsg{N: 1}) {
		t.Fatal("first send refused")
	}
	a.ShapeLink("b", 10*time.Millisecond, 0)
	if !a.Send("b", pingMsg{N: 2}) || !a.Send("c", pingMsg{N: 3}) {
		t.Fatal("send refused")
	}
	h.waitFor("all three packets", 2*time.Second, func() bool {
		return h.received("b") == 2 && h.received("c") == 1
	})
	b, c := h.arrivals("b"), h.arrivals("c")
	if b[0].n != 1 || b[1].n != 2 {
		t.Fatalf("b received %d then %d, want 1 then 2", b[0].n, b[1].n)
	}
	if !c[0].at.Before(b[0].at) {
		t.Fatal("c's 10ms packet waited behind b's 200ms one")
	}
}

// TestDelayLineConcurrentLinks has three goroutines share one node's
// loop heap, each sending on its own link and changing that link's
// latency as it goes: every link's packets arrive, in send order.
func TestDelayLineConcurrentLinks(t *testing.T) {
	const each = 200
	peers := []simnet.NodeID{"b", "c", "d"}
	h := newShaperHarness(t, append([]simnet.NodeID{"a"}, peers...)...)
	a := h.cluster.node("a")
	var wg sync.WaitGroup
	for i, to := range peers {
		wg.Add(1)
		go func(seed int64, to simnet.NodeID) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for n := 0; n < each; n++ {
				a.ShapeLink(to, time.Duration(1+r.Intn(20))*time.Millisecond, 0)
				if !a.Send(to, pingMsg{N: n}) {
					t.Errorf("send %d to %s refused", n, to)
					return
				}
			}
		}(int64(i), to)
	}
	wg.Wait()
	for _, to := range peers {
		to := to
		h.waitFor("every packet to "+string(to), 5*time.Second, func() bool { return h.received(to) == each })
		for i, got := range h.arrivals(to) {
			if got.n != i {
				t.Fatalf("%s's arrival %d is packet %d: the link reordered", to, i, got.n)
			}
		}
	}
}

// TestRestoreKeepsQueuedPacketDue restores a link with a packet still
// in the delay line: the packet keeps its original due time, as in the
// simulator, while a packet sent after the restore goes at once.
func TestRestoreKeepsQueuedPacketDue(t *testing.T) {
	const latency = 200 * time.Millisecond
	h := newShaperHarness(t, "a", "b")
	a := h.cluster.node("a")
	h.cluster.DegradeLink("a", "b", latency, 0)
	sent := time.Now()
	if !a.Send("b", pingMsg{N: 1}) {
		t.Fatal("send into delay line refused")
	}
	h.cluster.RestoreLink("a", "b")
	if !a.Send("b", pingMsg{N: 2}) {
		t.Fatal("send after restore refused")
	}
	h.waitFor("both packets", 2*time.Second, func() bool { return h.received("b") == 2 })
	got := h.arrivals("b")
	if got[0].n != 2 || got[1].n != 1 {
		t.Fatalf("b received %d then %d, want the unshaped 2 first", got[0].n, got[1].n)
	}
	if waited := got[1].at.Sub(sent); waited < latency {
		t.Fatalf("queued packet arrived after %v, before its %v due time", waited, latency)
	}
}

// TestShaperCrashedSenderDelivers crashes a node while its packet
// waits out a shaped link's latency: the packet still arrives, as a
// simulated message whose sender crashed after sending it does — only
// the receiver's state counts at delivery.
func TestShaperCrashedSenderDelivers(t *testing.T) {
	const latency = 100 * time.Millisecond
	h := newShaperHarness(t, "a", "b")
	h.cluster.DegradeLink("a", "b", latency, 0)
	sent := time.Now()
	if !h.cluster.node("a").Send("b", pingMsg{N: 1}) {
		t.Fatal("send into delay line refused")
	}
	h.inject(fault.Event{Kind: fault.KindCrash, Node: "a"})
	if time.Since(sent) >= latency {
		t.Skip("the crash landed after the packet was due")
	}
	h.waitFor("the crashed sender's packet", 2*time.Second, func() bool { return h.received("b") == 1 })
}

// TestDelayLineBoundPerLink fills one link past shapeQueueCap: exactly
// the packets beyond the bound drop, and another link of the same node
// still has all of its room.
func TestDelayLineBoundPerLink(t *testing.T) {
	const k = 3
	h := newShaperHarness(t, "a", "b", "c")
	a := h.cluster.node("a")
	a.ShapeLink("b", time.Hour, 0)
	a.ShapeLink("c", time.Hour, 0)
	refused := 0
	for i := 0; i < shapeQueueCap+k; i++ {
		if !a.Send("b", pingMsg{N: i}) {
			refused++
		}
	}
	if !a.Send("c", pingMsg{N: 0}) {
		t.Fatal("a full link to b refused a send to c")
	}
	if s := a.NetStats(); refused != k || s.Dropped != k || s.Delayed != shapeQueueCap+1 {
		t.Fatalf("refused %d, stats %+v; want %d dropped and %d delayed", refused, s, k, shapeQueueCap+1)
	}
}

// TestCloseWithQueuedPackets closes a cluster whose loops still hold
// packets due in an hour: Close returns and every goroutine the
// cluster started is gone.
func TestCloseWithQueuedPackets(t *testing.T) {
	baseline := runtime.NumGoroutine()
	h := newShaperHarness(t, "a", "b")
	h.cluster.DegradeLink("a", "b", time.Hour, 0)
	a, b := h.cluster.node("a"), h.cluster.node("b")
	for i := 0; i < 10; i++ {
		if !a.Send("b", pingMsg{N: i}) || !b.Send("a", pingMsg{N: i}) {
			t.Fatal("send into delay line refused")
		}
	}
	closed := make(chan struct{})
	go func() {
		h.cluster.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with packets queued")
	}
	h.waitFor("goroutines back to baseline", 2*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestShapeLinkFootprint is the gate on what shaping costs before any
// packet is delayed: one node shaping 400 links allocates a few hundred
// bytes per link and starts no goroutine. A queue or drain goroutine per
// link (288 KiB of channel each at shapeQueueCap) fails it.
func TestShapeLinkFootprint(t *testing.T) {
	const links = 400
	n, err := NewNode("hub", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	peers := make([]simnet.NodeID, links)
	for i := range peers {
		peers[i] = simnet.NodeID(fmt.Sprintf("edge-%03d", i))
	}
	goroutines := runtime.NumGoroutine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range peers {
		n.ShapeLink(p, 200*time.Millisecond, 0.01)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / links; per > 4<<10 {
		t.Errorf("ShapeLink allocates %d bytes per link, want <= 4 KiB", per)
	}
	if started := runtime.NumGoroutine() - goroutines; started > 1 {
		t.Errorf("%d ShapeLink calls started %d goroutines, want <= 1", links, started)
	}
}

// TestDelayLinePopsInDueOrder drives the loop's heap, which holds the
// delayed packets, with interleaved pushes, pops and removals by index
// against a linear scan for the least (due, seq).
func TestDelayLinePopsInDueOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h timerHeap
	var model []*timerEntry
	var seq uint64
	less := func(a, b *timerEntry) bool { return a.due < b.due || a.due == b.due && a.seq < b.seq }
	for step := 0; step < 5000; step++ {
		switch op := r.Intn(4); {
		case len(h) == 0 || op < 2:
			seq++
			e := &timerEntry{due: int64(r.Intn(40)), seq: seq}
			heap.Push(&h, e)
			model = append(model, e)
		case op == 2:
			least := 0
			for i := range model {
				if less(model[i], model[least]) {
					least = i
				}
			}
			want := model[least]
			model = append(model[:least], model[least+1:]...)
			if got := heap.Pop(&h).(*timerEntry); got != want || got.idx != -1 {
				t.Fatalf("step %d: popped seq %d (idx %d), want seq %d", step, got.seq, got.idx, want.seq)
			}
		default:
			e := model[r.Intn(len(model))]
			if h[e.idx] != e {
				t.Fatalf("step %d: seq %d does not sit at its index %d", step, e.seq, e.idx)
			}
			heap.Remove(&h, e.idx)
			model = slices.DeleteFunc(model, func(m *timerEntry) bool { return m == e })
		}
		if len(h) != len(model) {
			t.Fatalf("step %d: heap holds %d entries, model %d", step, len(h), len(model))
		}
	}
}
