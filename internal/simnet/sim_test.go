package simnet

import (
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if got := s.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New()
	var fired time.Duration
	s.After(42*time.Millisecond, func() { fired = s.Now() })
	s.Run()
	if fired != 42*time.Millisecond {
		t.Fatalf("fired at %v, want 42ms", fired)
	}
	if s.Now() != 42*time.Millisecond {
		t.Fatalf("Now() = %v, want 42ms", s.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO for equal timestamps)", i, order[i], i)
		}
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	fired := false
	tm := s.After(10*time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false, want true for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestAtClampsPast(t *testing.T) {
	s := New()
	s.After(10*time.Millisecond, func() {
		s.At(5*time.Millisecond, func() {
			if s.Now() != 10*time.Millisecond {
				t.Errorf("past event ran at %v, want clamped to 10ms", s.Now())
			}
		})
	})
	s.Run()
}

func TestRunUntilAdvancesToHorizon(t *testing.T) {
	s := New()
	ran := false
	s.After(time.Second, func() { ran = true })
	s.RunUntil(500 * time.Millisecond)
	if ran {
		t.Fatal("event after horizon ran")
	}
	if s.Now() != 500*time.Millisecond {
		t.Fatalf("Now() = %v, want 500ms", s.Now())
	}
	s.RunUntil(2 * time.Second)
	if !ran {
		t.Fatal("event did not run after extending horizon")
	}
}

func TestSendDeliver(t *testing.T) {
	s := New(WithDefaultLatency(3 * time.Millisecond))
	a := s.AddNode("a")
	b := s.AddNode("b")
	var got Message
	var from NodeID
	var at time.Duration
	b.OnMessage(func(f NodeID, m Message) { from, got, at = f, m, s.Now() })
	if !a.Send("b", "hello") {
		t.Fatal("Send returned false")
	}
	s.Run()
	if got != "hello" || from != "a" {
		t.Fatalf("got %v from %v, want hello from a", got, from)
	}
	if at < 3*time.Millisecond || at > 4*time.Millisecond {
		t.Fatalf("delivered at %v, want ~3ms (latency + ≤10%% jitter)", at)
	}
}

func TestSendToUnknownNodeDropped(t *testing.T) {
	s := New()
	a := s.AddNode("a")
	if a.Send("ghost", "x") {
		t.Fatal("Send to unknown node returned true")
	}
	if s.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", s.Stats().Dropped)
	}
}

func TestDownNodeCannotSendOrReceive(t *testing.T) {
	s := New()
	a := s.AddNode("a")
	b := s.AddNode("b")
	delivered := 0
	b.OnMessage(func(NodeID, Message) { delivered++ })

	s.SetDown("b", true)
	a.Send("b", "x")
	s.Run()
	if delivered != 0 {
		t.Fatal("message delivered to down node")
	}

	s.SetDown("b", false)
	s.SetDown("a", true)
	if a.Send("b", "y") {
		t.Fatal("down node could send")
	}
	s.Run()
	if delivered != 0 {
		t.Fatal("message from down node delivered")
	}
}

func TestCrashWhileInFlightDropsMessage(t *testing.T) {
	s := New(WithDefaultLatency(10 * time.Millisecond))
	a := s.AddNode("a")
	b := s.AddNode("b")
	delivered := 0
	b.OnMessage(func(NodeID, Message) { delivered++ })
	a.Send("b", "x")
	s.After(time.Millisecond, func() { s.SetDown("b", true) })
	s.Run()
	if delivered != 0 {
		t.Fatal("message delivered to node that crashed while message was in flight")
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	s := New()
	a := s.AddNode("a")
	b := s.AddNode("b")
	delivered := 0
	b.OnMessage(func(NodeID, Message) { delivered++ })

	s.Partition([]NodeID{"a"}, []NodeID{"b"})
	a.Send("b", "blocked")
	s.Run()
	if delivered != 0 {
		t.Fatal("message crossed partition")
	}

	s.HealPartition()
	a.Send("b", "ok")
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d after heal, want 1", delivered)
	}
}

func TestUnlistedNodesShareImplicitGroup(t *testing.T) {
	s := New()
	a := s.AddNode("a")
	s.AddNode("b")
	c := s.AddNode("c")
	got := 0
	c.OnMessage(func(NodeID, Message) { got++ })
	// Partition isolates only b; a and c stay connected.
	s.Partition([]NodeID{"b"})
	a.Send("c", "x")
	s.Run()
	if got != 1 {
		t.Fatalf("delivered = %d, want 1 (a and c share the implicit group)", got)
	}
}

func TestCutLink(t *testing.T) {
	s := New()
	a := s.AddNode("a")
	b := s.AddNode("b")
	var fromA, fromB int
	b.OnMessage(func(NodeID, Message) { fromA++ })
	a.OnMessage(func(NodeID, Message) { fromB++ })

	s.SetLink("a", "b", time.Millisecond, 1.0)
	a.Send("b", "x")
	b.Send("a", "y") // reverse direction not cut
	s.Run()
	if fromA != 0 {
		t.Fatal("cut link delivered")
	}
	if fromB != 1 {
		t.Fatal("reverse direction wrongly cut")
	}
	s.ClearLink("a", "b")
	a.Send("b", "z")
	s.Run()
	if fromA != 1 {
		t.Fatal("restored link did not deliver")
	}
}

func TestLinkLoss(t *testing.T) {
	s := New(WithSeed(7))
	a := s.AddNode("a")
	b := s.AddNode("b")
	delivered := 0
	b.OnMessage(func(NodeID, Message) { delivered++ })
	s.SetLink("a", "b", time.Millisecond, 0.5)
	const n = 1000
	for i := 0; i < n; i++ {
		a.Send("b", i)
	}
	s.Run()
	if delivered < 400 || delivered > 600 {
		t.Fatalf("delivered = %d of %d with 50%% loss, want ≈500", delivered, n)
	}
}

func TestEndpointTimerSkippedWhileDown(t *testing.T) {
	s := New()
	a := s.AddNode("a")
	fired := false
	a.After(10*time.Millisecond, func() { fired = true })
	s.SetDown("a", true)
	s.Run()
	if fired {
		t.Fatal("endpoint timer fired while node down")
	}
}

func TestTickerSkipsDownAndResumes(t *testing.T) {
	s := New()
	a := s.AddNode("a")
	ticks := 0
	a.Every(10*time.Millisecond, func() { ticks++ })
	s.After(25*time.Millisecond, func() { s.SetDown("a", true) })  // after 2 ticks
	s.After(55*time.Millisecond, func() { s.SetDown("a", false) }) // misses ticks 3,4,5
	s.RunUntil(100 * time.Millisecond)
	// Ticks at 10,20 fire; 30,40,50 skipped; 60..100 fire (5 more).
	if ticks != 7 {
		t.Fatalf("ticks = %d, want 7", ticks)
	}
}

func TestTickerStop(t *testing.T) {
	s := New()
	a := s.AddNode("a")
	ticks := 0
	tk := a.Every(10*time.Millisecond, func() { ticks++ })
	s.After(35*time.Millisecond, tk.Stop)
	s.RunUntil(100 * time.Millisecond)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
}

func TestOnUpOnDownCallbacks(t *testing.T) {
	s := New()
	a := s.AddNode("a")
	var events []string
	a.OnDown(func() { events = append(events, "down") })
	a.OnUp(func() { events = append(events, "up") })
	s.SetDown("a", true)
	s.SetDown("a", true) // no-op
	s.SetDown("a", false)
	if len(events) != 2 || events[0] != "down" || events[1] != "up" {
		t.Fatalf("events = %v, want [down up]", events)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		s := New(WithSeed(99), WithDefaultLatency(4*time.Millisecond), WithDefaultLoss(0.2))
		a := s.AddNode("a")
		b := s.AddNode("b")
		var arrivals []time.Duration
		b.OnMessage(func(NodeID, Message) { arrivals = append(arrivals, s.Now()) })
		for i := 0; i < 50; i++ {
			d := time.Duration(i) * time.Millisecond
			s.After(d, func() { a.Send("b", "m") })
		}
		s.Run()
		return arrivals
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatalf("runs differ in length: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, r1[i], r2[i])
		}
	}
}

type sizedMsg struct{ n int }

func (m sizedMsg) Size() int { return m.n }

func TestStatsAndSizedMessages(t *testing.T) {
	s := New()
	a := s.AddNode("a")
	b := s.AddNode("b")
	b.OnMessage(func(NodeID, Message) {})
	a.Send("b", sizedMsg{n: 321})
	a.Send("b", "plain")
	s.Run()
	st := s.Stats()
	if st.Sent != 2 || st.Delivered != 2 {
		t.Fatalf("stats = %+v, want 2 sent / 2 delivered", st)
	}
	if st.Bytes != 321+defaultMessageSize {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, 321+defaultMessageSize)
	}
}

func TestDuplicateDelivery(t *testing.T) {
	s := New(WithSeed(4), WithDuplicateProb(0.5))
	a := s.AddNode("a")
	b := s.AddNode("b")
	delivered := 0
	b.OnMessage(func(NodeID, Message) { delivered++ })
	const n = 1000
	for i := 0; i < n; i++ {
		a.Send("b", i)
	}
	s.Run()
	if delivered < 1400 || delivered > 1600 {
		t.Fatalf("delivered = %d of %d sends with 50%% duplication, want ≈1500", delivered, n)
	}
}

func TestNoDuplicatesByDefault(t *testing.T) {
	s := New(WithSeed(4))
	a := s.AddNode("a")
	b := s.AddNode("b")
	delivered := 0
	b.OnMessage(func(NodeID, Message) { delivered++ })
	for i := 0; i < 100; i++ {
		a.Send("b", i)
	}
	s.Run()
	if delivered != 100 {
		t.Fatalf("delivered = %d, want exactly 100", delivered)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for duplicate node")
		}
	}()
	s := New()
	s.AddNode("a")
	s.AddNode("a")
}

func TestPendingCountsLiveEvents(t *testing.T) {
	s := New()
	s.After(time.Millisecond, func() {})
	tm := s.After(2*time.Millisecond, func() {})
	tm.Stop()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1", got)
	}
}
