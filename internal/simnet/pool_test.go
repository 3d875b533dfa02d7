package simnet

import (
	"testing"
	"time"
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
	pages := len(ln.pages)
	for i := 0; i < n; i++ {
		s.After(time.Millisecond, func() {})
	}
	s.Run()
	if len(ln.pages) != pages {
		t.Fatalf("page table grew from %d to %d despite recycling", pages, len(ln.pages))
	}
}
