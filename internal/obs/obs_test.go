package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// virtualClock is a settable test clock.
type virtualClock struct{ now time.Duration }

func (c *virtualClock) Now() time.Duration { return c.now }

func TestNilBusIsInert(t *testing.T) {
	var b *Bus
	b.Publish(Event{Kind: "x"})
	b.Emit("x", "n", 0, 0, "detail %d", 1)
	if b.Active() {
		t.Fatal("nil bus active")
	}
	if b.NewSpanID() != 0 {
		t.Fatal("nil bus allocated a span id")
	}
	sp := b.StartSpan("x", "n", 0)
	if sp.bus != nil {
		t.Fatal("nil bus returned a live span")
	}
	sp.End("nothing")
	if b.Now() != 0 {
		t.Fatal("nil bus has a clock")
	}
}

func TestPublishWithoutSubscribersIsDropped(t *testing.T) {
	clk := &virtualClock{}
	b := NewBus(clk.Now)
	b.Publish(Event{Kind: "unheard"})
	sub := b.Subscribe(4)
	defer sub.Close()
	if evs := sub.Events(); len(evs) != 0 {
		t.Fatalf("pre-subscription events visible: %v", evs)
	}
}

func TestSubscribeDeliversAndStampsTime(t *testing.T) {
	clk := &virtualClock{now: 5 * time.Second}
	b := NewBus(clk.Now)
	sub := b.Subscribe(8)
	defer sub.Close()
	b.Emit("gossip.suspect", "n1", 0, 0, "member %s", "n2")
	evs := sub.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.At != 5*time.Second || ev.Kind != "gossip.suspect" || ev.Node != "n1" || ev.Detail != "member n2" {
		t.Fatalf("event = %+v", ev)
	}
	// Drained: a second read is empty.
	if len(sub.Events()) != 0 {
		t.Fatal("ring not drained")
	}
}

func TestRingKeepsNewestAndCountsDropped(t *testing.T) {
	b := NewBus((&virtualClock{now: 1}).Now)
	sub := b.Subscribe(3)
	defer sub.Close()
	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: "k", Span: uint64(i + 1)})
	}
	evs := sub.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	if evs[0].Span != 3 || evs[2].Span != 5 {
		t.Fatalf("ring kept %v, want spans 3..5 oldest-first", evs)
	}
	if sub.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", sub.Dropped())
	}
}

func TestActiveTracksSubscriptions(t *testing.T) {
	b := NewBus((&virtualClock{}).Now)
	if b.Active() {
		t.Fatal("new bus active")
	}
	s1 := b.Subscribe(1)
	s2 := b.SubscribeFunc(func(Event) {})
	if !b.Active() {
		t.Fatal("bus with subscribers inactive")
	}
	s1.Close()
	s1.Close() // idempotent
	if !b.Active() {
		t.Fatal("one subscriber remains; should be active")
	}
	s2.Close()
	if b.Active() {
		t.Fatal("all closed; should be inactive")
	}
}

func TestSpanCausalChain(t *testing.T) {
	clk := &virtualClock{now: time.Second}
	b := NewBus(clk.Now)
	sub := b.Subscribe(8)
	defer sub.Close()

	root := b.StartSpan("mape.cycle", "gw-0", 0)
	if root.bus == nil || root.ID == 0 {
		t.Fatalf("root span = %+v", root)
	}
	b.Emit("mape.issue", "gw-0", 0, root.ID, "R-temp-0")
	clk.now += 20 * time.Millisecond
	root.End("issues=%d", 1)

	evs := sub.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	issue, cycle := evs[0], evs[1]
	if issue.Parent != root.ID {
		t.Fatalf("issue parent = %d, want %d", issue.Parent, root.ID)
	}
	if cycle.Span != root.ID || cycle.Dur != 20*time.Millisecond || cycle.At != time.Second {
		t.Fatalf("cycle event = %+v", cycle)
	}
	if !strings.Contains(cycle.Detail, "issues=1") {
		t.Fatalf("cycle detail = %q", cycle.Detail)
	}
}

func TestSpanOnIdleBusIsFree(t *testing.T) {
	b := NewBus((&virtualClock{}).Now)
	sp := b.StartSpan("x", "n", 0)
	if sp.bus != nil || sp.ID != 0 {
		t.Fatalf("idle-bus span = %+v", sp)
	}
	sp.End("ignored")
}

func TestSpanIDsRemainUniqueAcrossSubscriptionChurn(t *testing.T) {
	b := NewBus((&virtualClock{}).Now)
	id1 := b.NewSpanID()
	sub := b.Subscribe(1)
	sp := b.StartSpan("x", "", 0)
	sub.Close()
	id2 := b.NewSpanID()
	if id1 == 0 || sp.ID <= id1 || id2 <= sp.ID {
		t.Fatalf("ids not strictly increasing: %d, %d, %d", id1, sp.ID, id2)
	}
}

// TestConcurrentPublish exercises the bus from many goroutines under
// the race detector: realnet nodes publish from their event loops
// while scrapers read.
func TestConcurrentPublish(t *testing.T) {
	b := NewBus(nil)
	var got sync.Map
	fn := b.SubscribeFunc(func(ev Event) { got.Store(ev.Span, true) })
	ring := b.Subscribe(64)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Emit("k", "n", uint64(w*per+i+1), 0, "m")
				_ = b.Active()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			ring.Events()
		}
	}()
	wg.Wait()
	n := 0
	got.Range(func(any, any) bool { n++; return true })
	if n != workers*per {
		t.Fatalf("func subscriber saw %d distinct events, want %d", n, workers*per)
	}
	fn.Close()
	ring.Close()
}

func TestWallClockDefault(t *testing.T) {
	b := NewBus(nil)
	n1 := b.Now()
	time.Sleep(time.Millisecond)
	if n2 := b.Now(); n2 <= n1 {
		t.Fatalf("wall clock did not advance: %v then %v", n1, n2)
	}
}
