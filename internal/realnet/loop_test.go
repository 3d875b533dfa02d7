package realnet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
)

// runningNode starts a standalone node and closes it with the test.
func runningNode(t *testing.T) *Node {
	t.Helper()
	n, err := NewNode("x", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	n.Run()
	return n
}

// waitFor polls cond until it holds or d passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestLoopStopBeforeAndAfterFire(t *testing.T) {
	n := runningNode(t)
	var ran atomic.Int32
	tm := n.After(30*time.Millisecond, func() { ran.Add(1) })
	if !tm.Stop() {
		t.Fatal("Stop before the fire returned false")
	}
	if tm.Stop() {
		t.Fatal("a second Stop returned true")
	}

	fired := make(chan struct{})
	late := n.After(time.Millisecond, func() { close(fired) })
	<-fired
	if late.Stop() {
		t.Fatal("Stop after the fire returned true")
	}
	time.Sleep(60 * time.Millisecond)
	n.Do(func() {})
	if ran.Load() != 0 {
		t.Fatal("a stopped timer fired")
	}
}

// TestLoopStopFromOtherGoroutines races Stop against the fire: every
// timer either runs or is stopped with Stop reporting true, never both
// and never neither.
func TestLoopStopFromOtherGoroutines(t *testing.T) {
	n := runningNode(t)
	const timers = 400
	var ran, stopped atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < timers; i++ {
		tm := n.AfterArg(time.Duration(i%20)*100*time.Microsecond, func(uint64) { ran.Add(1) }, uint64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i%7) * 150 * time.Microsecond)
			if tm.Stop() {
				stopped.Add(1)
			}
		}()
	}
	wg.Wait()
	waitFor(t, 5*time.Second, "every timer to fire or stop", func() bool {
		return ran.Load()+stopped.Load() == timers
	})
	time.Sleep(20 * time.Millisecond)
	n.Do(func() {})
	if got := ran.Load() + stopped.Load(); got != timers {
		t.Fatalf("ran %d + stopped %d = %d, want %d", ran.Load(), stopped.Load(), got, timers)
	}
	if l := n.PendingTimers(); l != 0 {
		t.Fatalf("%d timers left in the heap", l)
	}
}

// TestLoopEarlierTimerFromOutsideRearms arms the clock an hour out, then
// adds a short timer from a goroutine that is not the loop: it must not
// wait for the hour.
func TestLoopEarlierTimerFromOutsideRearms(t *testing.T) {
	n := runningNode(t)
	n.After(time.Hour, func() {})
	start := time.Now()
	fired := make(chan time.Time, 1)
	go n.After(20*time.Millisecond, func() { fired <- time.Now() })
	select {
	case at := <-fired:
		if took := at.Sub(start); took < 20*time.Millisecond {
			t.Fatalf("fired after %v, before its due time", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an earlier timer added from outside the loop waited for the armed one")
	}
}

// wakeBound is how long a sleeping loop may take to run work handed to
// it from another goroutine: a lost wake would leave it asleep until the
// hour-long entry every case queues first.
const wakeBound = 100 * time.Millisecond

// TestLoopWakesFromOtherGoroutines lets a loop fall asleep with nothing
// due for an hour, then hands it work from other goroutines: a Do, an
// After and a SetDown each run within wakeBound. A serialized cluster's
// loop, which on Linux sleeps in epoll and must be woken through its
// eventfd, also takes a Cluster.At earlier than every queued entry; a
// standalone node's loop sleeps in a chanPoller.
func TestLoopWakesFromOtherGoroutines(t *testing.T) {
	t.Run("serialized cluster", func(t *testing.T) {
		c := NewCluster(ClusterConfig{Seed: 1, Serialize: true})
		defer c.Close()
		n, err := c.AddNode("a")
		if err != nil {
			t.Fatal(err)
		}
		c.At(time.Hour, func() {})
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		checkWakes(t, n, func(lead time.Duration, fn func()) { c.At(c.Now()+lead, fn) })
	})
	t.Run("standalone node", func(t *testing.T) {
		n, err := NewNode("x", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		n.After(time.Hour, func() {})
		n.Run()
		checkWakes(t, n, nil)
	})
}

// checkWakes hands n's sleeping loop a Do, an earlier After and, when
// runAt is given, an earlier runAt, three times each, then a SetDown,
// each from a goroutine of its own, and checks that each runs within
// wakeBound of its due time.
func checkWakes(t *testing.T, n *Node, runAt func(lead time.Duration, fn func())) {
	t.Helper()
	downs := make(chan time.Time, 1)
	n.OnDown(func() { downs <- time.Now() })
	within := func(what string, lead time.Duration, ran <-chan time.Time, start time.Time) {
		t.Helper()
		select {
		case at := <-ran:
			if took := at.Sub(start); took < lead || took > lead+wakeBound {
				t.Errorf("%s ran after %v, want %v to %v", what, took, lead, lead+wakeBound)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s from another goroutine did not wake the sleeping loop", what)
		}
	}
	const lead = 5 * time.Millisecond
	for i := 0; i < 3; i++ {
		time.Sleep(10 * time.Millisecond) // the loop goes back to sleep
		ran := make(chan time.Time, 1)
		start := time.Now()
		go n.Do(func() { ran <- time.Now() })
		within("Do", 0, ran, start)

		if runAt != nil {
			time.Sleep(10 * time.Millisecond)
			start = time.Now()
			go runAt(lead, func() { ran <- time.Now() })
			within("an earlier At", lead, ran, start)
		}

		time.Sleep(10 * time.Millisecond)
		start = time.Now()
		go n.After(lead, func() { ran <- time.Now() })
		within("an earlier After", lead, ran, start)
	}
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	go n.SetDown(true)
	within("SetDown's hooks", 0, downs, start)
}

// TestLoopTickerKeepsPhaseAndDropsMissedTicks blocks the loop for ten
// periods: the ticker fires once to catch up, not ten times, and its
// next due time stays on the original phase.
func TestLoopTickerKeepsPhaseAndDropsMissedTicks(t *testing.T) {
	n := runningNode(t)
	const period = 40 * time.Millisecond
	var ticks atomic.Int32
	n.Every(period, func() { ticks.Add(1) })
	phase := n.nextDue() % int64(period)

	var before int32
	var unblocked time.Time
	n.Do(func() {
		before = ticks.Load()
		time.Sleep(10*period + period/2)
		unblocked = time.Now()
	})
	time.Sleep(period / 4)
	n.Do(func() {})
	// One catch-up tick, plus whatever fell due on the phase since.
	allowed := 1 + int32(time.Since(unblocked)/period) + 1
	if got := ticks.Load() - before; got > allowed {
		t.Fatalf("%d ticks after a blocked loop, want <= %d: the missed ones dropped", got, allowed)
	}
	if p := n.nextDue() % int64(period); p != phase {
		t.Fatalf("ticker phase moved from %d to %d ns", phase, p)
	}
}

func TestLoopSkipsFiresWhileDown(t *testing.T) {
	n := runningNode(t)
	const period = 5 * time.Millisecond
	var ticks, after atomic.Int32
	n.Every(period, func() { ticks.Add(1) })
	waitFor(t, 5*time.Second, "a tick", func() bool { return ticks.Load() > 0 })

	n.SetDown(true)
	n.After(period, func() { after.Add(1) })
	n.Do(func() {})
	down := ticks.Load()
	time.Sleep(10 * period)
	n.Do(func() {})
	if got := ticks.Load(); got != down {
		t.Fatalf("ticker fired %d times while down", got-down)
	}
	if after.Load() != 0 {
		t.Fatal("a timer fired while down")
	}

	n.SetDown(false)
	waitFor(t, 5*time.Second, "the ticker to resume after up", func() bool { return ticks.Load() > down })
	if after.Load() != 0 {
		t.Fatal("a timer due while down fired after up")
	}
}

// TestLoopStopLeavesHeap guards against lazy deletion: a stopped timer
// or ticker must leave the heap at once, not wake the loop at its due
// time.
func TestLoopStopLeavesHeap(t *testing.T) {
	n := runningNode(t)
	for i := 0; i < 1000; i++ {
		n.After(time.Hour, func() {}).Stop()
	}
	tk := n.Every(time.Hour, func() {})
	keep := n.After(time.Hour, func() {})
	if l := n.PendingTimers(); l != 2 {
		t.Fatalf("heap holds %d entries, want 2", l)
	}
	tk.Stop()
	keep.Stop()
	if l := n.PendingTimers(); l != 0 {
		t.Fatalf("heap holds %d entries after Stop, want 0", l)
	}
}

// TestSharedLoopSerializesAndDropsClosedNodes runs two nodes of a
// serialized cluster on its one loop: their ticks never overlap, and a
// closed node's ticker stops while the other's keeps going.
func TestSharedLoopSerializesAndDropsClosedNodes(t *testing.T) {
	c := NewCluster(ClusterConfig{Seed: 1, Serialize: true})
	defer c.Close()
	a, err := c.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddNode("b")
	if err != nil {
		t.Fatal(err)
	}
	var inside, overlaps, ta, tb atomic.Int32
	tick := func(count *atomic.Int32) func() {
		return func() {
			if inside.Add(1) > 1 {
				overlaps.Add(1)
			}
			count.Add(1)
			time.Sleep(100 * time.Microsecond)
			inside.Add(-1)
		}
	}
	a.Every(time.Millisecond, tick(&ta))
	b.Every(time.Millisecond, tick(&tb))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "both tickers", func() bool { return ta.Load() > 10 && tb.Load() > 10 })
	a.Close()
	stopped := ta.Load()
	more := tb.Load() + 10
	waitFor(t, 5*time.Second, "b's ticker after a closed", func() bool { return tb.Load() > more })
	if got := ta.Load(); got > stopped+1 {
		t.Fatalf("closed node's ticker fired %d more times", got-stopped)
	}
	if overlaps.Load() != 0 {
		t.Fatalf("%d callbacks overlapped on a serialized cluster", overlaps.Load())
	}
	if s := c.LoopStats(); s.Fires < 20 || s.BusyFrac() <= 0 || s.BusyFrac() > 1 {
		t.Fatalf("loop stats %+v", s)
	}
}

func TestLoopStatsLateness(t *testing.T) {
	var s LoopStats
	if s.LateQuantile(0.99) != 0 {
		t.Fatal("empty histogram has a quantile")
	}
	for _, late := range []time.Duration{0, 500 * time.Nanosecond, 3 * time.Microsecond, 900 * time.Microsecond} {
		s.Late[lateBucket(int64(late))]++
	}
	s.Late[lateBucket(int64(time.Hour))]++
	for q, want := range map[float64]time.Duration{
		0:    time.Microsecond,
		0.5:  4 * time.Microsecond,
		0.75: 1024 * time.Microsecond,
		1:    time.Microsecond << (LateBuckets - 1),
	} {
		if got := s.LateQuantile(q); got != want {
			t.Errorf("LateQuantile(%g) = %v, want %v", q, got, want)
		}
	}
}

// settledGoroutines is runtime.NumGoroutine once goroutines that earlier
// tests started have finished exiting: the count has held for 10 ms.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still, deadline := 0, time.Now().Add(time.Second); still < 5 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestLoopFootprint is the gate on what timers and sockets cost: a
// serialized cluster runs one loop goroutine for all its nodes and no
// goroutine per ticker or per node with delayed packets — and on Linux
// no reader per node either, its loop polling their sockets —, a
// standalone node runs its reader and its loop, and a timer set and
// stopped allocates its entry, its handle and the stop closure only.
func TestLoopFootprint(t *testing.T) {
	const nodes = 50
	RegisterWireType(pingMsg{})
	id := func(i int) simnet.NodeID { return simnet.NodeID(fmt.Sprintf("n%02d", i%nodes)) }
	want, what := nodes+1, fmt.Sprintf("%d readers + 1 loop", nodes)
	if runtime.GOOS == "linux" && runtime.GOARCH != "386" {
		want, what = 1, "1 loop polling every socket"
	}
	base := settledGoroutines()
	c := NewCluster(ClusterConfig{Seed: 1, Serialize: true})
	defer c.Close()
	for i := 0; i < nodes; i++ {
		n, err := c.AddNode(id(i))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			n.Every(time.Hour, func() {})
		}
		for k := 0; k < 10; k++ {
			n.After(time.Hour, func() {})
		}
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	cluster := runtime.NumGoroutine() - base
	if cluster > want {
		t.Errorf("serialized %d-node cluster runs %d goroutines, want %s", nodes, cluster, what)
	}
	for i := 0; i < 10; i++ {
		n := c.node(id(i))
		n.ShapeLink(id(i+1), time.Hour, 0)
		for k := 0; k < 3; k++ {
			if !n.Send(id(i+1), pingMsg{N: k}) {
				t.Fatal("send on a shaped link refused")
			}
		}
	}
	if shaped := runtime.NumGoroutine() - base; shaped > want {
		t.Errorf("with delayed packets on 10 nodes the cluster runs %d goroutines, want %s", shaped, what)
	}

	base = settledGoroutines()
	n, err := NewNode("solo", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for k := 0; k < 3; k++ {
		n.Every(time.Hour, func() {})
	}
	n.Run()
	solo := runtime.NumGoroutine() - base
	if solo > 2 {
		t.Errorf("standalone node runs %d goroutines, want a reader and a loop", solo)
	}

	fn := func() {}
	allocs := testing.AllocsPerRun(200, func() { n.After(time.Hour, fn).Stop() })
	if allocs > 3 {
		t.Errorf("After + Stop makes %.0f allocations, want <= 3", allocs)
	}
	t.Logf("goroutines: %d for the %d-node cluster, %d for a standalone node; After + Stop: %.0f allocations", cluster, nodes, solo, allocs)
}
