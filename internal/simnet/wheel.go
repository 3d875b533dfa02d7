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
// deadline instead, so an insert is an append into one of 512 slots and
// a pop drains one small bucket at a time: O(1) amortized in the total
// queue size.
//
// Layout (bucket widths are powers of two so slot math is a shift):
//
//	level 0:  256 slots x 2^20ns (~1.05ms)  — covers ~268ms
//	level 1:  256 slots x 2^28ns (~268ms)   — covers ~68.7s
//	spill:    sorted slice for everything beyond the L1 horizon
//	          (scenario faults, run-end timers — rare by construction)
//
// Buckets are unordered; when a bucket becomes current it is sorted by
// (at, seq) into the *run* — the currently draining, totally ordered
// slice. Because (at, seq) is a total order (seq is unique), the pop
// sequence is exactly a heap's pop sequence — verified against a
// container/heap model by the property tests in wheel_test.go — which
// is what journal determinism rests on.
//
// Invariants, with runHi == cur0<<l0Shift at all times:
//
//	run[head:]        all entries with at <  runHi, sorted by (at, seq)
//	l0[b&mask]        entries with at>>l0Shift == b, cur0 <= b < cur1<<8
//	l1[b&mask]        entries with at>>l1Shift == b, cur1 <= b < cur1+256
//	spill             entries with at >= (cur1+256)<<l1Shift,
//	                  sorted descending so promotion pops from the end
//
// Inserts below runHi (same-tick sends, zero-delay callbacks) binary-
// insert into the run, preserving the total order; everything else is
// a bucket append. Cancellation is not the wheel's job: events are
// marked dead in the arena and skipped at pop.
type timerWheel struct {
	run    []heapEntry // current sorted drain window
	head   int         // next run entry to pop
	runHi  time.Duration
	l0     [wheelSlots][]heapEntry
	l1     [wheelSlots][]heapEntry
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
	// spare holds each level's emptied bucket arrays, length zero,
	// capacity kept. A drained bucket gives its array back and an empty
	// bucket takes one before its first append, so a level grows about
	// as many arrays as it has buckets occupied at once — in the ML4
	// city about two dozen L1 buckets, not all 256 slots each regrowing
	// from nil.
	// L0's arrays pass through the run: a drained bucket becomes the run
	// and the run it replaces is spare. Each lane owns its wheel, so the
	// lists need no lock.
	spare [2][][]heapEntry
}

const (
	l0Shift    = 20 // 2^20ns ~ 1.05ms per L0 bucket
	l1Shift    = 28 // 2^28ns ~ 268ms per L1 bucket
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
)

func newTimerWheel() *timerWheel {
	return &timerWheel{cur1: 1} // L0 owns [0, 256); L1 owns [1, 257)
}

func (w *timerWheel) len() int {
	return (len(w.run) - w.head) + w.n0 + w.n1 + len(w.spill)
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
		w.file0(b&wheelMask, e)
		return
	}
	if b := int64(at >> l1Shift); b < w.cur1+wheelSlots {
		w.file1(b&wheelMask, e)
		return
	}
	// Far future: sorted descending, so the minimum sits at the end.
	lo, hi := 0, len(w.spill)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entryLess(e, w.spill[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.spill = append(w.spill, heapEntry{})
	copy(w.spill[lo+1:], w.spill[lo:])
	w.spill[lo] = e
}

// file0 and file1 append e to an L0 or L1 slot, marking it occupied.
func (w *timerWheel) file0(slot int64, e heapEntry) {
	w.l0[slot] = w.bucketAppend(0, w.l0[slot], e)
	w.occ0[slot>>6] |= 1 << (uint(slot) & 63)
	w.n0++
}

func (w *timerWheel) file1(slot int64, e heapEntry) {
	w.l1[slot] = w.bucketAppend(1, w.l1[slot], e)
	w.occ1[slot>>6] |= 1 << (uint(slot) & 63)
	w.n1++
}

// bucketAppend appends e to bucket b of the level, giving an empty
// bucket a spare array first.
func (w *timerWheel) bucketAppend(level int, b []heapEntry, e heapEntry) []heapEntry {
	if b == nil {
		if sp := w.spare[level]; len(sp) > 0 {
			b = sp[len(sp)-1]
			w.spare[level] = sp[:len(sp)-1]
		}
	}
	return append(b, e)
}

// recycle returns a drained bucket's array to the level's spare list.
func (w *timerWheel) recycle(level int, b []heapEntry) {
	if cap(b) > 0 {
		w.spare[level] = append(w.spare[level], b[:0])
	}
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
			b := &w.l0[idx]
			w.n0 -= len(*b)
			w.recycle(0, w.run)
			w.run, *b = *b, nil
			w.occ0[idx>>6] &^= 1 << (uint(idx) & 63)
			w.head = 0
			slices.SortFunc(w.run, entryCmp)
			return true
		}
		if w.n1 == 0 && len(w.spill) == 0 {
			return false
		}
		if w.n1 == 0 {
			// Idle gap: slide the L1 window so the spill minimum lands
			// inside it instead of cascading empty slots one by one.
			min := w.spill[len(w.spill)-1]
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
			if s := int64(w.spill[len(w.spill)-1].at>>l1Shift) - (wheelSlots - 1); s > w.cur1 && s < next {
				next = s
			}
		}
		w.cur1 = next
		w.cur0 = w.cur1 << 8
		w.runHi = time.Duration(w.cur0) << l0Shift
		b := &w.l1[w.cur1&wheelMask]
		w.occ1[(w.cur1&wheelMask)>>6] &^= 1 << (uint(w.cur1) & 63)
		w.cur1++
		w.n1 -= len(*b)
		for _, e := range *b {
			w.file0(int64(e.at>>l0Shift)&wheelMask, e)
		}
		w.recycle(1, *b)
		*b = nil
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

// promote moves spill entries now covered by the L1 window into L1.
// The spill is sorted descending, so candidates sit at the end.
func (w *timerWheel) promote() {
	limit := time.Duration(w.cur1+wheelSlots) << l1Shift
	for n := len(w.spill); n > 0 && w.spill[n-1].at < limit; n = len(w.spill) {
		e := w.spill[n-1]
		w.spill = w.spill[:n-1]
		w.file1(int64(e.at>>l1Shift)&wheelMask, e)
	}
}

// entries appends every queued entry (live or dead, in no particular
// order) to dst; used by Pending and diagnostics only.
func (w *timerWheel) entries(dst []heapEntry) []heapEntry {
	dst = append(dst, w.run[w.head:]...)
	for i := range w.l0 {
		dst = append(dst, w.l0[i]...)
	}
	for i := range w.l1 {
		dst = append(dst, w.l1[i]...)
	}
	return append(dst, w.spill...)
}
