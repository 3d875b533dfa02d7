package simnet

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// refModel is an independent reference scheduler built on the standard
// library's container/heap, deliberately sharing no code with the
// production queue. The property tests drive the timing wheel and this
// model with identical operation sequences and require identical pop
// sequences.
type refModel []heapEntry

func (m refModel) Len() int      { return len(m) }
func (m refModel) Swap(i, j int) { m[i], m[j] = m[j], m[i] }
func (m refModel) Less(i, j int) bool {
	if m[i].at != m[j].at {
		return m[i].at < m[j].at
	}
	return m[i].seq < m[j].seq
}
func (m *refModel) Push(x any) { *m = append(*m, x.(heapEntry)) }
func (m *refModel) Pop() any {
	old := *m
	n := len(old) - 1
	e := old[n]
	*m = old[:n]
	return e
}

// len counts the queued entries: the drain run's remainder, both wheel
// levels and the spill.
func (w *timerWheel) len() int {
	return (len(w.run) - w.head) + w.n0 + w.n1 + len(w.spill)
}

// drawDeadline picks a deadline at or after now from one of several
// regimes so the test exercises every wheel level: the current drain
// window, the L0 wheel, the L1 wheel, and the far-future spill.
func drawDeadline(rng *rand.Rand, now time.Duration) time.Duration {
	switch rng.Intn(10) {
	case 0: // same tick / zero delay — must land in the current run
		return now
	case 1, 2, 3: // near future: L0 territory (latency-scale)
		return now + time.Duration(rng.Int63n(int64(250*time.Millisecond)))
	case 4, 5, 6: // mid future: L1 territory (ticker-scale)
		return now + time.Duration(rng.Int63n(int64(60*time.Second)))
	case 7, 8: // beyond the L1 horizon: spill territory
		return now + 69*time.Second + time.Duration(rng.Int63n(int64(10*time.Minute)))
	default: // deep idle gap: forces the L1 window slide
		return now + time.Duration(rng.Int63n(int64(4*time.Hour)))
	}
}

// TestWheelMatchesHeapModel drives the wheel and the reference model
// with the same randomized insert/advance sequence and checks that
// every pop returns the same (at, seq, idx) triple — i.e. the wheel
// realizes exactly the (at, seq) total order, which is the property
// journal determinism rests on.
func TestWheelMatchesHeapModel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newTimerWheel()
		ref := &refModel{}
		var (
			seq uint64
			now time.Duration
		)
		for op := 0; op < 4000; op++ {
			if n := rng.Intn(10); n < 6 || ref.Len() == 0 {
				seq++
				at := drawDeadline(rng, now)
				w.push(at, seq, uint32(seq))
				heap.Push(ref, heapEntry{at: at, seq: seq, idx: uint32(seq)})
				continue
			}
			want := heap.Pop(ref).(heapEntry)
			gotPeek, ok := w.peek()
			if !ok || gotPeek != want {
				t.Fatalf("seed %d op %d: peek = %+v (ok=%v), want %+v", seed, op, gotPeek, ok, want)
			}
			got := w.pop()
			if got != want {
				t.Fatalf("seed %d op %d: pop = %+v, want %+v", seed, op, got, want)
			}
			now = got.at // simulation time advances to the popped event
		}
		// Drain both completely; the tails must agree too.
		for ref.Len() > 0 {
			want := heap.Pop(ref).(heapEntry)
			got, ok := w.peek()
			if !ok || got != want {
				t.Fatalf("seed %d drain: peek = %+v (ok=%v), want %+v", seed, got, ok, want)
			}
			w.pop()
		}
		if e, ok := w.peek(); ok {
			t.Fatalf("seed %d: wheel still has %+v after drain", seed, e)
		}
		if w.len() != 0 {
			t.Fatalf("seed %d: wheel len = %d after drain", seed, w.len())
		}
	}
}

// TestWheelSameTickFIFO checks stable ordering for equal deadlines:
// entries scheduled for the same instant must pop in scheduling (seq)
// order, including entries binary-inserted into an already-materialized
// drain window.
func TestWheelSameTickFIFO(t *testing.T) {
	w := newTimerWheel()
	const at = 5 * time.Millisecond
	for seq := uint64(1); seq <= 100; seq++ {
		w.push(at, seq, uint32(seq))
	}
	// Materialize the run, then add more entries at the same tick; they
	// must slot in after the existing ones.
	if e, _ := w.peek(); e.seq != 1 {
		t.Fatalf("first peek seq = %d, want 1", e.seq)
	}
	for seq := uint64(101); seq <= 200; seq++ {
		w.push(at, seq, uint32(seq))
	}
	for want := uint64(1); want <= 200; want++ {
		e, ok := w.peek()
		if !ok || e.seq != want || e.at != at {
			t.Fatalf("pop %d: got %+v (ok=%v)", want, e, ok)
		}
		w.pop()
	}
}

// TestWheelSpillPromotion checks the far-future path: entries beyond
// the L1 horizon go to the spill and are promoted through L1/L0 in
// order, including across idle gaps that force the L1 window to slide.
func TestWheelSpillPromotion(t *testing.T) {
	w := newTimerWheel()
	deadlines := []time.Duration{
		3 * time.Hour,    // deep spill
		70 * time.Second, // just past the initial L1 horizon
		time.Millisecond, // L0
		30 * time.Second, // L1
		90 * time.Minute, // spill, out of insertion order
		3*time.Hour + 1,  // adjacent to the deep entry
		3*time.Hour - time.Nanosecond,
	}
	for i, at := range deadlines {
		w.push(at, uint64(i+1), uint32(i+1))
	}
	var prev heapEntry
	for i := 0; i < len(deadlines); i++ {
		e, ok := w.peek()
		if !ok {
			t.Fatalf("pop %d: wheel empty", i)
		}
		if i > 0 && !entryLess(prev, e) {
			t.Fatalf("pop %d: %+v not after %+v", i, e, prev)
		}
		prev = e
		w.pop()
	}
	if w.len() != 0 {
		t.Fatalf("wheel len = %d after drain", w.len())
	}
}

// TestWheelRecyclesBucketArrays holds a steady population across the L1
// horizon — half 5 s tickers, half 0.5 s timeouts, each entry filing
// its successor as it pops, like a city's sample ticks and probe
// timeouts — for three L1 rotations, and bounds the bytes the wheel
// allocates by a small multiple of the entries it ever holds at once:
// bucket arrays circulate among the buckets occupied together instead
// of each of the 512 slots growing its own.
func TestWheelRecyclesBucketArrays(t *testing.T) {
	const population = 4000
	period := func(idx uint32) time.Duration {
		if idx%2 == 0 {
			return 5 * time.Second
		}
		return 500 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := newTimerWheel()
	seq := uint64(0)
	for i := uint32(0); i < population; i++ {
		seq++
		w.push(time.Duration(rng.Int63n(int64(period(i)))), seq, i)
	}
	peak, pops := w.len(), 0
	horizon := time.Duration(3*wheelSlots) << l1Shift
	for e, _ := w.peek(); e.at < horizon; e, _ = w.peek() {
		w.pop()
		seq++
		w.push(e.at+period(e.idx), seq, e.idx)
		peak = max(peak, w.len())
		pops++
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	held := uint64(peak) * uint64(unsafe.Sizeof(heapEntry{}))
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d pops over %v: %d KB allocated, %d KB held at peak (%.1fx)",
		pops, horizon, alloc>>10, held>>10, float64(alloc)/float64(held))
	if alloc > 32*held {
		t.Fatalf("the wheel allocated %d KB for at most %d KB of queued entries: more than 32x", alloc>>10, held>>10)
	}
}

// TestSimSchedulerEquivalence runs a timer workload — sim-level and
// node timers, a third cancelled — through a whole Sim at zero and one
// shard lanes, and requires the execution trace to be the reference
// model's pop order of the (at, seq) keys the engine assigned. It also
// pins the key policy that separates the two journal families: a
// global scheduling-order counter at zero lanes, rank<<ctrBits|counter
// per node at one.
func TestSimSchedulerEquivalence(t *testing.T) {
	for _, lanes := range []int{0, 1} {
		s := withLanes(lanes, WithSeed(7))
		owners := []*Endpoint{nil, s.AddNode("a"), s.AddNode("b")} // nil: Sim.After
		rng := rand.New(rand.NewSource(42))
		var trace []uint32
		var timers []*Timer
		for i := uint32(0); i < 500; i++ {
			i := i
			d := drawDeadline(rng, 0)
			fn := func() { trace = append(trace, i) }
			if ep := owners[i%3]; ep != nil {
				timers = append(timers, ep.After(d, fn))
			} else {
				timers = append(timers, s.After(d, fn))
			}
		}
		// Read back the key each timer was queued under.
		keys := make(map[*event]heapEntry)
		for _, ln := range s.shd.lanes {
			for _, e := range ln.wheel.entries(nil) {
				keys[ln.eventAt(e.idx)] = e
			}
		}
		ref := &refModel{}
		perOwner := make([]uint64, len(owners))
		for i, tm := range timers {
			key, ok := keys[tm.ev]
			if !ok {
				t.Fatalf("lanes=%d: timer %d is not queued", lanes, i)
			}
			o := i % 3
			perOwner[o]++
			want := uint64(i + 1) // zero lanes: global scheduling order
			if lanes > 0 {
				want = uint64(o)<<ctrBits | perOwner[o] // rank 0 is the coordinator
			}
			if key.seq != want {
				t.Fatalf("lanes=%d: timer %d keyed %#x, want %#x", lanes, i, key.seq, want)
			}
			if (i/3)%3 == 0 { // cancel a third, spread over all three owners
				if !tm.Stop() {
					t.Fatalf("lanes=%d: Stop(%d) = false before the run", lanes, i)
				}
				continue
			}
			heap.Push(ref, heapEntry{at: key.at, seq: key.seq, idx: uint32(i)})
		}
		s.RunUntil(5 * time.Hour)
		if len(trace) != ref.Len() {
			t.Fatalf("lanes=%d: %d timers fired, reference holds %d", lanes, len(trace), ref.Len())
		}
		for n, got := range trace {
			if want := heap.Pop(ref).(heapEntry); got != want.idx {
				t.Fatalf("lanes=%d: fired[%d] = timer %d, reference pops timer %d (at %v seq %#x)",
					lanes, n, got, want.idx, want.at, want.seq)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("lanes=%d: %d events still pending", lanes, s.Pending())
		}
	}
}
