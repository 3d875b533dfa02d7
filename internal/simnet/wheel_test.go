package simnet

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
// with the same insert/advance sequence and checks that every pop
// returns the same (at, seq, idx) triple — i.e. the wheel realizes
// exactly the (at, seq) total order, which is the property journal
// determinism rests on. The random shape spreads deadlines over every
// level; the spill shapes arm far-future entries the way a fault
// schedule does — in time order, reversed, all at one instant, and
// mixed with L0/L1 pushes and pops while the spill is being promoted.
func TestWheelMatchesHeapModel(t *testing.T) {
	const spillN = 3000
	shapes := []struct {
		name     string
		seeds    int64
		ops      int
		push     int // of every 10 ops, how many push; the rest pop
		deadline func(rng *rand.Rand, seq uint64, now time.Duration) time.Duration
	}{
		{"random", 20, 4000, 6, func(rng *rand.Rand, _ uint64, now time.Duration) time.Duration {
			return drawDeadline(rng, now)
		}},
		{"spill-ascending", 1, spillN, 10, func(_ *rand.Rand, seq uint64, _ time.Duration) time.Duration {
			return 70*time.Second + time.Duration(seq)*time.Millisecond
		}},
		{"spill-descending", 1, spillN, 10, func(_ *rand.Rand, seq uint64, _ time.Duration) time.Duration {
			return 70*time.Second + time.Duration(spillN-seq)*time.Millisecond
		}},
		{"spill-one-instant", 1, spillN, 10, func(*rand.Rand, uint64, time.Duration) time.Duration {
			return 96 * time.Second
		}},
		{"spill-mixed", 5, 4000, 8, func(rng *rand.Rand, seq uint64, now time.Duration) time.Duration {
			if seq%3 == 0 {
				return drawDeadline(rng, now) // run, L0, L1 or spill
			}
			return now + 69*time.Second + time.Duration(rng.Int63n(int64(3*time.Minute)))
		}},
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < sh.seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := newTimerWheel()
			ref := &refModel{}
			var (
				seq uint64
				now time.Duration
			)
			for op := 0; op < sh.ops; op++ {
				if n := rng.Intn(10); n < sh.push || ref.Len() == 0 {
					seq++
					at := sh.deadline(rng, seq, now)
					w.push(at, seq, uint32(seq))
					heap.Push(ref, heapEntry{at: at, seq: seq, idx: uint32(seq)})
					continue
				}
				want := heap.Pop(ref).(heapEntry)
				gotPeek, ok := w.peek()
				if !ok || gotPeek != want {
					t.Fatalf("%s seed %d op %d: peek = %+v (ok=%v), want %+v", sh.name, seed, op, gotPeek, ok, want)
				}
				got := w.pop()
				if got != want {
					t.Fatalf("%s seed %d op %d: pop = %+v, want %+v", sh.name, seed, op, got, want)
				}
				now = got.at // simulation time advances to the popped event
			}
			// Drain both completely; the tails must agree too.
			for ref.Len() > 0 {
				want := heap.Pop(ref).(heapEntry)
				got, ok := w.peek()
				if !ok || got != want {
					t.Fatalf("%s seed %d drain: peek = %+v (ok=%v), want %+v", sh.name, seed, got, ok, want)
				}
				w.pop()
			}
			if e, ok := w.peek(); ok {
				t.Fatalf("%s seed %d: wheel still has %+v after drain", sh.name, seed, e)
			}
			if w.len() != 0 {
				t.Fatalf("%s seed %d: wheel len = %d after drain", sh.name, seed, w.len())
			}
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
// filing and cascading only relink entries in one table sized to the
// arena, so steady churn allocates nothing once that table and the run
// have grown.
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

// TestWheelHoldsWhatIsQueued re-arms 4 000 entries every second at one
// phase, so they all land in one L0 bucket like a city's synchronized
// ticks, beside 4 000 timeouts redrawn from (0, 1 s], for four virtual
// minutes. It then bounds the heap the wheel still holds, after a
// collection, by 4x the bytes of the most entries ever queued at once:
// a bucket costs memory for what it holds now, not for the largest
// burst that ever passed through a slot.
func TestWheelHoldsWhatIsQueued(t *testing.T) {
	const ticks, timeouts = 4000, 4000
	rng := rand.New(rand.NewSource(1))
	rearm := func(idx uint32, now time.Duration) time.Duration {
		if idx < ticks {
			return now + time.Second
		}
		return now + 1 + time.Duration(rng.Int63n(int64(time.Second)))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := newTimerWheel()
	seq := uint64(0)
	for i := uint32(0); i < ticks+timeouts; i++ {
		seq++
		w.push(rearm(i, 0), seq, i)
	}
	peak := w.len()
	const horizon = 4 * time.Minute
	for e, _ := w.peek(); e.at < horizon; e, _ = w.peek() {
		w.pop()
		seq++
		w.push(rearm(e.idx, e.at), seq, e.idx)
		peak = max(peak, w.len())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	queued := uint64(peak) * uint64(unsafe.Sizeof(heapEntry{}))
	held := after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc)
	t.Logf("after %v: the wheel holds %d KB for at most %d KB of queued entries (%.1fx)",
		horizon, held>>10, queued>>10, float64(held)/float64(queued))
	if held > 4*queued {
		t.Fatalf("the wheel holds %d KB for at most %d KB of queued entries: more than 4x", held>>10, queued>>10)
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

// spillOrders are the arming orders of the spill tests: time order, as
// fault.Injector arms a schedule, its reverse, and a shuffle.
var spillOrders = []string{"ascending", "descending", "random"}

// spillDeadlines returns n distinct deadlines past the initial L1
// horizon, 1 ms apart, in the named arming order.
func spillDeadlines(order string, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = 70*time.Second + time.Duration(i)*time.Millisecond
	}
	switch order {
	case "descending":
		slices.Reverse(out)
	case "random":
		rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// armSpill pushes every deadline into w, keyed by position.
func armSpill(w *timerWheel, deadlines []time.Duration) {
	for i, at := range deadlines {
		w.push(at, uint64(i+1), uint32(i))
	}
}

// TestSpillArmStaysLinear is the spill's growth gate. It times arming
// far-future entries into an empty wheel at 10^4 and 8*10^4 entries,
// in each order of spillOrders, and fails if the cost per entry at the
// larger count is more than 4x the cost at the smaller. A spill that
// shifts on insert pays per entry in proportion to the entries already
// there (an 8x ratio in theory, about 50x measured once the larger
// spill leaves the cache); a heap pays O(log n) and measured 1.7-2.0x,
// the rest being cache misses at the larger size. It is a timing test,
// so each figure is the fastest of seven runs into one reused wheel: a
// run slowed by the scheduler or a collection does not count.
func TestSpillArmStaysLinear(t *testing.T) {
	nsPerEntry := func(order string, n int) float64 {
		deadlines := spillDeadlines(order, n)
		w, best := newTimerWheel(), time.Duration(math.MaxInt64)
		for run := 0; run < 7; run++ {
			// Every entry is in the spill, so emptying it empties the
			// wheel; keeping its array times the inserts, not the page
			// faults of growing it.
			w.spill = w.spill[:0]
			start := time.Now()
			armSpill(w, deadlines)
			best = min(best, time.Since(start))
		}
		return float64(best.Nanoseconds()) / float64(n)
	}
	for _, order := range spillOrders {
		small, large := nsPerEntry(order, 10_000), nsPerEntry(order, 80_000)
		ratio := large / small
		t.Logf("%s: %.1f ns per entry at 10^4, %.1f at 8*10^4 (%.1fx)", order, small, large, ratio)
		if ratio > 4 {
			t.Errorf("%s arming costs %.1fx more per entry at 8*10^4 entries than at 10^4: the spill is not linear", order, ratio)
		}
	}
}
