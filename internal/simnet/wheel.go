package simnet

import (
	"math/bits"
	"slices"
	"time"
)

// heapEntry is one queue slot: the ordering key (at, seq) inline next
// to the event's arena index. Sorting and binary inserts touch only the
// entry arrays — never the events themselves — and because the entry is
// pointer-free, moving one incurs no GC write barrier. The
// container/heap reference model in wheel_test.go orders the same type.
type heapEntry struct {
	at  time.Duration
	seq uint64
	idx uint32 // event arena index; see lane.eventAt
}

// entryLess orders entries by time, then by seq (scheduling order for
// equal timestamps when seq is a global counter). seq is unique, so the
// order is total and pop order is fully determined by scheduling
// history — which is what keeps runs bit-identical across refactors of
// this file.
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// timerWheel is a hierarchical timing wheel (Varghese & Lauck): a
// lane's event queue. A heap pays O(log n) sift cost per event against
// the *whole* pending set — at city scale that is a ~10^5-entry array
// walked on every push and pop. The wheel buckets events by coarse
// deadline instead, so an insert is a list push onto one of 512 slots
// and a pop drains one small bucket at a time: O(1) amortized in the
// total queue size.
//
// Layout (bucket widths are powers of two so slot math is a shift):
//
//	level 0:  256 slots x 2^20ns (~1.05ms)  — covers ~268ms
//	level 1:  256 slots x 2^28ns (~268ms)   — covers ~68.7s
//	spill:    binary min-heap for everything beyond the L1 horizon
//	          (scenario faults, run-end timers)
//
// A bucket is an unordered list threaded through links by event arena
// index (an event is queued at most once at a time): it holds memory
// only for the entries in it now, and a cascade relinks them without
// copying. When a bucket becomes current its list is walked into the
// *run* — the currently draining slice — and sorted by (at, seq), a
// total order (seq is unique), so the pop sequence is exactly a heap's
// — verified against a container/heap model by the property tests in
// wheel_test.go — which is what journal determinism rests on.
//
// Invariants, with runHi == cur0<<l0Shift at all times:
//
//	run[head:]        all entries with at <  runHi, sorted by (at, seq)
//	list l0[b&mask]   entries with at>>l0Shift == b, cur0 <= b < cur1<<8
//	list l1[b&mask]   entries with at>>l1Shift == b, cur1 <= b < cur1+256
//	spill             entries with at >= (cur1+256)<<l1Shift, a
//	                  binary min-heap on (at, seq): spill[0] is the
//	                  minimum, and promotion pops it
//	links[i]          key and successor of bucketed entry i, else stale
//
// Inserts below runHi (same-tick sends, zero-delay callbacks) binary-
// insert into the run, preserving the total order; everything else is
// a list push. Cancellation is not the wheel's job: events are marked
// dead in the arena and skipped at pop.
type timerWheel struct {
	run    []heapEntry // current sorted drain window
	head   int         // next run entry to pop
	runHi  time.Duration
	l0     [wheelSlots]uint32 // list heads (arena indices), noLink if empty
	l1     [wheelSlots]uint32
	links  []wheelLink
	cur0   int64 // next absolute L0 bucket to drain; runHi == cur0<<l0Shift
	cur1   int64 // next absolute L1 bucket to cascade into L0
	n0, n1 int   // queued entry counts per level
	spill  []heapEntry
	// Occupancy bitmaps over the slot arrays (bit i = slot i is
	// non-empty). advance jumps straight to the next set bit instead
	// of probing empty slots one by one — in a sparse sim the wheel
	// would otherwise sweep ~a thousand empty ~1ms slots per virtual
	// second between events.
	occ0 [wheelSlots / 64]uint64
	occ1 [wheelSlots / 64]uint64
}

// wheelLink is a bucketed entry's key and its successor's arena index.
type wheelLink struct {
	at   time.Duration
	seq  uint64
	next uint32
}

const (
	l0Shift    = 20 // 2^20ns ~ 1.05ms per L0 bucket
	l1Shift    = 28 // 2^28ns ~ 268ms per L1 bucket
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
	noLink     = ^uint32(0)
)

func newTimerWheel() *timerWheel {
	w := &timerWheel{cur1: 1} // L0 owns [0, 256); L1 owns [1, 257)
	for i := range w.l0 {
		w.l0[i], w.l1[i] = noLink, noLink
	}
	return w
}

// entryCmp is entryLess as a three-way comparison for slices.SortFunc.
func entryCmp(a, b heapEntry) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.seq < b.seq {
		return -1
	}
	return 1 // seq is unique; equality cannot happen
}

// push files the entry into the level owning its deadline.
func (w *timerWheel) push(at time.Duration, seq uint64, idx uint32) {
	e := heapEntry{at: at, seq: seq, idx: idx}
	if at < w.runHi {
		// Lands inside the already-sorted drain window: binary insert
		// after any earlier (at, seq) keys. Rare (zero-delay work).
		lo, hi := w.head, len(w.run)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if entryLess(w.run[mid], e) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		w.run = append(w.run, heapEntry{})
		copy(w.run[lo+1:], w.run[lo:])
		w.run[lo] = e
		return
	}
	if b := int64(at >> l0Shift); b < w.cur1<<8 {
		w.file0(b&wheelMask, w.key(e))
		return
	}
	if b := int64(at >> l1Shift); b < w.cur1+wheelSlots {
		w.file1(b&wheelMask, w.key(e))
		return
	}
	// Far future: a min-heap, so arming order does not matter.
	w.spillPush(e)
}

// key stores e's key in links, grown to the arena's size, at e.idx.
func (w *timerWheel) key(e heapEntry) uint32 {
	if n := int(e.idx) + 1; n > len(w.links) {
		w.links = slices.Grow(w.links, n-len(w.links))[:n]
	}
	w.links[e.idx].at, w.links[e.idx].seq = e.at, e.seq
	return e.idx
}

// file0 and file1 push entry i, keyed in links, onto an L0 or L1 slot's
// list, marking the slot full.
func (w *timerWheel) file0(slot int64, i uint32) {
	w.links[i].next, w.l0[slot] = w.l0[slot], i
	w.occ0[slot>>6] |= 1 << (uint(slot) & 63)
	w.n0++
}

func (w *timerWheel) file1(slot int64, i uint32) {
	w.links[i].next, w.l1[slot] = w.l1[slot], i
	w.occ1[slot>>6] |= 1 << (uint(slot) & 63)
	w.n1++
}

// peek returns the minimum entry without removing it.
func (w *timerWheel) peek() (heapEntry, bool) {
	if w.head == len(w.run) && !w.advance() {
		return heapEntry{}, false
	}
	return w.run[w.head], true
}

// pop removes and returns the minimum entry.
func (w *timerWheel) pop() heapEntry {
	e := w.run[w.head] // peek must have returned ok
	w.head++
	return e
}

// advance materializes the next drain window: the next non-empty L0
// bucket, sorted. When L0 is exhausted it cascades the next L1 bucket
// down, and when L1 runs dry it slides the L1 window toward the spill
// minimum and promotes. Returns false when no entries remain anywhere.
func (w *timerWheel) advance() bool {
	for {
		if w.n0 > 0 {
			// Every L0 bucket in the window [cur0, cur1<<8) lives in
			// one mask period, so the next occupied slot is the next
			// set occupancy bit at or after cur0's masked index.
			idx, _ := nextSet(w.occ0[:], int(w.cur0&wheelMask))
			w.cur0 = (w.cur0 &^ wheelMask) | int64(idx)
			w.cur0++
			w.runHi = time.Duration(w.cur0) << l0Shift
			w.run, w.head = w.run[:0], 0
			for i := w.l0[idx]; i != noLink; i = w.links[i].next {
				w.run = append(w.run, heapEntry{at: w.links[i].at, seq: w.links[i].seq, idx: i})
			}
			w.n0 -= len(w.run)
			w.l0[idx] = noLink
			w.occ0[idx>>6] &^= 1 << (uint(idx) & 63)
			slices.SortFunc(w.run, entryCmp)
			return true
		}
		if w.n1 == 0 && len(w.spill) == 0 {
			return false
		}
		if w.n1 == 0 {
			// Idle gap: slide the L1 window so the spill minimum lands
			// inside it instead of cascading empty slots one by one.
			min := w.spill[0]
			if b := int64(min.at >> l1Shift); b >= w.cur1+wheelSlots {
				w.cur1 = b - (wheelSlots - 1)
			}
			w.promote()
			continue
		}
		// Cascade the next L1 bucket into L0, jumping over buckets
		// that are provably empty: before both the next occupied L1
		// slot and the point where the first spill entry would enter
		// the L1 window (promotion into a skipped bucket must not be
		// lost, so the jump is clamped to that boundary).
		next := w.nextL1()
		if len(w.spill) > 0 {
			if s := int64(w.spill[0].at>>l1Shift) - (wheelSlots - 1); s > w.cur1 && s < next {
				next = s
			}
		}
		w.cur1 = next
		w.cur0 = w.cur1 << 8
		w.runHi = time.Duration(w.cur0) << l0Shift
		slot := w.cur1 & wheelMask
		w.occ1[slot>>6] &^= 1 << (uint(slot) & 63)
		w.cur1++
		for j := w.l1[slot]; j != noLink; {
			i, l := j, &w.links[j]
			j = l.next
			w.file0(int64(l.at>>l0Shift)&wheelMask, i)
		}
		w.n1 -= w.n0 // L0 was empty, so n0 counts the entries moved
		w.l1[slot] = noLink
		w.promote()
	}
}

// nextL1 returns the absolute index of the first occupied L1 bucket at
// or after cur1. The window [cur1, cur1+256) wraps the mask, so a
// failed scan from cur1's masked index restarts from zero. Caller
// guarantees n1 > 0.
func (w *timerWheel) nextL1() int64 {
	base := w.cur1 &^ wheelMask
	if idx, ok := nextSet(w.occ1[:], int(w.cur1&wheelMask)); ok {
		return base | int64(idx)
	}
	idx, _ := nextSet(w.occ1[:], 0)
	return base + wheelSlots + int64(idx)
}

// nextSet returns the index of the first set bit at or after from.
func nextSet(occ []uint64, from int) (int, bool) {
	if word := occ[from>>6] >> (uint(from) & 63); word != 0 {
		return from + bits.TrailingZeros64(word), true
	}
	for i := from>>6 + 1; i < len(occ); i++ {
		if occ[i] != 0 {
			return i<<6 + bits.TrailingZeros64(occ[i]), true
		}
	}
	return 0, false
}

// promote moves spill entries now covered by the L1 window into L1,
// minimum first. The order they are filed in does not matter: a
// bucket is sorted when it becomes the run.
func (w *timerWheel) promote() {
	limit := time.Duration(w.cur1+wheelSlots) << l1Shift
	for len(w.spill) > 0 && w.spill[0].at < limit {
		e := w.spillPop()
		w.file1(int64(e.at>>l1Shift)&wheelMask, w.key(e))
	}
}

// spillPush adds e to the spill heap. A fault schedule arms its events
// in time order, so each entry is usually the largest so far and stops
// at once; no order costs more than O(log n) moves.
func (w *timerWheel) spillPush(e heapEntry) {
	h := append(w.spill, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	w.spill = h
}

// spillPop removes and returns the spill minimum, spill[0].
func (w *timerWheel) spillPop() heapEntry {
	h := w.spill
	top, n := h[0], len(h)-1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && entryLess(h[r], h[c]) {
				c = r
			}
			if !entryLess(h[c], last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	w.spill = h
	return top
}

// entries appends every queued entry (live or dead, in no particular
// order) to dst; used by Pending and diagnostics only.
func (w *timerWheel) entries(dst []heapEntry) []heapEntry {
	dst = append(dst, w.run[w.head:]...)
	for _, heads := range [][wheelSlots]uint32{w.l0, w.l1} {
		for _, i := range heads {
			for ; i != noLink; i = w.links[i].next {
				dst = append(dst, heapEntry{at: w.links[i].at, seq: w.links[i].seq, idx: i})
			}
		}
	}
	return append(dst, w.spill...)
}
