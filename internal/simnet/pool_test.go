package simnet

import (
	"testing"
	"time"
	"unsafe"
)

// TestStaleTimerHandleIsInert is the pooled-reuse safety property: a
// Timer whose event has fired and been recycled must not cancel the
// recycled storage's next occupant.
func TestStaleTimerHandleIsInert(t *testing.T) {
	s := New()
	fired1, fired2 := false, false
	t1 := s.After(time.Millisecond, func() { fired1 = true })
	s.Run()
	if !fired1 {
		t.Fatal("first timer did not fire")
	}

	// The pool hands the same storage back to the next schedule.
	t2 := s.After(time.Millisecond, func() { fired2 = true })
	if t2.ev != t1.ev {
		t.Skip("pool did not reuse the storage; stale-handle path not exercised")
	}
	if t1.Stop() {
		t.Fatal("stale Stop claimed to cancel")
	}
	s.Run()
	if !fired2 {
		t.Fatal("stale Stop cancelled the recycled event's new occupant")
	}
	// t2's own Stop after firing is also a no-op.
	if t2.Stop() {
		t.Fatal("Stop after firing claimed to cancel")
	}
}

// TestTickerStopInsideCallback: a ticker whose callback stops it must
// not fire again, and its event storage must be recycled cleanly.
func TestTickerStopInsideCallback(t *testing.T) {
	s := New()
	ep := s.AddNode("n")
	count := 0
	var tk *Ticker
	tk = ep.Every(time.Second, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.RunUntil(time.Minute)
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3", count)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after ticker stopped itself", s.Pending())
	}
}

// TestEventPoolRecyclesAcrossPages schedules more simultaneous events
// than one arena page holds, so paging and index arithmetic get
// exercised, then checks every callback ran exactly once.
func TestEventPoolRecyclesAcrossPages(t *testing.T) {
	s := New()
	const n = eventPageSize*2 + 37
	fired := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		s.After(time.Duration(i%7)*time.Millisecond, func() { fired[i]++ })
	}
	s.Run()
	for i, f := range fired {
		if f != 1 {
			t.Fatalf("callback %d fired %d times", i, f)
		}
	}
	// All storage is back on the free list; a fresh burst must not
	// grow the page table.
	ln := s.shd.coord
	pages := len(ln.events.pages)
	for i := 0; i < n; i++ {
		s.After(time.Millisecond, func() {})
	}
	s.Run()
	if len(ln.events.pages) != pages {
		t.Fatalf("page table grew from %d to %d despite recycling", pages, len(ln.events.pages))
	}
}

// TestEventIsSmall: almost every queued event is a timer or a ticker,
// so an event carries only what every kind needs and a delivery's
// payload lives in the delivery arena. A message payload back inside
// the event roughly quadruples it.
func TestEventIsSmall(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the bound is for 64-bit platforms")
	}
	if size := unsafe.Sizeof(event{}); size > 64 {
		t.Fatalf("event is %d B, want at most 64", size)
	}
}

// TestDeliveryArenaRecycles sends more than two delivery pages of boxed
// and envelope messages over two lanes, echoing them back across lanes
// through the outboxes. One envelope handler grows its lane's delivery
// arena with a burst of its own and must still read its envelope
// unchanged. After each round every slot is free and zeroed, and a
// second round adds no page.
func TestDeliveryArenaRecycles(t *testing.T) {
	s := New(WithShards(2), WithDefaultLatency(time.Millisecond))
	a, b, c := s.AddNode("a"), s.AddNode("b"), s.AddNode("c")
	s.SetShard("b", 1)
	s.SetShard("c", 1)
	const n = eventPageSize*2 + 37
	const burst = eventPageSize * 2
	var got0, got1 int // per lane: lanes may run on different goroutines
	burstDone, grew, changed := false, false, false
	a.OnMessage(func(NodeID, Message) { got0++ })
	a.OnEnvelope(func(NodeID, *Envelope) { got0++ })
	c.OnMessage(func(NodeID, Message) { got1++ })
	b.OnMessage(func(_ NodeID, msg Message) {
		got1++
		b.Send("a", msg)
	})
	b.OnEnvelope(func(_ NodeID, env *Envelope) {
		got1++
		want := *env
		if !burstDone {
			burstDone = true
			dl := &s.shd.lanes[1].deliveries
			pages := len(dl.pages)
			for i := 0; i < burst; i++ {
				b.Send("c", i)
			}
			grew = len(dl.pages) > pages
		}
		if *env != want {
			changed = true
		}
		b.SendEnvelope("a", *env)
	})
	round := func(horizon time.Duration) {
		got0, got1, burstDone = 0, 0, false
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				a.Send("b", i)
			} else {
				a.SendEnvelope("b", Envelope{Kind: 1, A: uint64(i), S: "a", Bytes: 24})
			}
		}
		s.RunUntil(horizon)
		if got0 != n || got1 != n+burst {
			t.Fatalf("delivered %d on lane 0 and %d on lane 1, want %d and %d", got0, got1, n, n+burst)
		}
		if changed {
			t.Fatal("an envelope changed while its handler ran")
		}
		for _, ln := range s.shd.lanes {
			dl := &ln.deliveries
			if len(dl.free) != len(dl.pages)*eventPageSize {
				t.Fatalf("lane %d: %d of %d delivery slots free after the run", ln.idx, len(dl.free), len(dl.pages)*eventPageSize)
			}
			for _, idx := range dl.free {
				if d := dl.at(idx); d.msg != nil || *d != (delivery{}) {
					t.Fatalf("lane %d: free delivery slot %d still holds %+v", ln.idx, idx, *d)
				}
			}
		}
	}
	round(time.Minute)
	if !grew {
		t.Fatal("the handler's burst did not grow the delivery arena; the test exercises nothing")
	}
	pages := make([]int, len(s.shd.lanes))
	for i, ln := range s.shd.lanes {
		pages[i] = len(ln.deliveries.pages)
	}
	round(2 * time.Minute)
	for i, ln := range s.shd.lanes {
		if len(ln.deliveries.pages) != pages[i] {
			t.Fatalf("lane %d: delivery pages grew from %d to %d despite recycling", i, pages[i], len(ln.deliveries.pages))
		}
	}
}
