package crdt

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestDeltaBufferCoalescesWrites(t *testing.T) {
	b := NewDeltaBuffer("p")
	b.Dirty("p", "k")
	b.Dirty("p", "k")
	b.Dirty("p", "k")
	if got := b.Pending("p"); len(got) != 1 || got[0] != "k" {
		t.Fatalf("pending = %v, want one coalesced key", got)
	}
	if b.PendingCount("p") != 1 {
		t.Fatalf("count = %d", b.PendingCount("p"))
	}
}

func TestDeltaBufferPendingSorted(t *testing.T) {
	b := NewDeltaBuffer("p")
	b.Dirty("p", "z")
	b.Dirty("p", "a")
	b.Dirty("p", "m")
	got := b.Pending("p")
	if len(got) != 3 || got[0] != "a" || got[1] != "m" || got[2] != "z" {
		t.Fatalf("pending = %v, want sorted", got)
	}
}

func TestDeltaBufferDirtyAllAndDrop(t *testing.T) {
	b := NewDeltaBuffer("p1", "p2")
	b.DirtyAll("k")
	if b.PendingCount("p1") != 1 || b.PendingCount("p2") != 1 {
		t.Fatal("DirtyAll missed a peer")
	}
	b.Drop("p1", "k")
	if b.PendingCount("p1") != 0 || b.PendingCount("p2") != 1 {
		t.Fatal("Drop leaked across peers")
	}
}

func TestDeltaBufferAckEvicts(t *testing.T) {
	b := NewDeltaBuffer("p")
	b.Dirty("p", "k")
	seq := b.NextSeq("p")
	b.MarkSent("p", seq, []string{"k"}, time.Second)
	if b.PendingCount("p") != 0 {
		t.Fatal("sent key still pending")
	}
	if !b.Ack("p", seq) {
		t.Fatal("ack of tracked frame rejected")
	}
	if b.Ack("p", seq) {
		t.Fatal("duplicate ack accepted")
	}
	b.Requeue("p", time.Hour)
	if b.PendingCount("p") != 0 {
		t.Fatal("acked key requeued")
	}
}

func TestDeltaBufferRequeueRespectsCutoff(t *testing.T) {
	// Frame sent at t=10s: a requeue with cutoff 5s (ack may still be
	// in flight) must leave it alone; a cutoff at/after 10s retransmits.
	b := NewDeltaBuffer("p")
	b.Dirty("p", "k")
	seq := b.NextSeq("p")
	b.MarkSent("p", seq, []string{"k"}, 10*time.Second)

	b.Requeue("p", 5*time.Second)
	if b.PendingCount("p") != 0 {
		t.Fatal("in-flight frame requeued before its RTO")
	}
	b.Requeue("p", 10*time.Second)
	if got := b.Pending("p"); len(got) != 1 || got[0] != "k" {
		t.Fatalf("pending after RTO = %v, want the lost key", got)
	}
	// The frame is gone from in-flight: a late ack is a no-op.
	if b.Ack("p", seq) {
		t.Fatal("late ack matched a requeued frame")
	}
}

func TestDeltaBufferRedirtyAfterSendStaysPending(t *testing.T) {
	// A key re-dirtied after its frame was cut carries a newer version:
	// the ack of the old frame must not evict the new change, and a
	// requeue must not clobber the newer pending version.
	b := NewDeltaBuffer("p")
	b.Dirty("p", "k")
	seq := b.NextSeq("p")
	b.MarkSent("p", seq, []string{"k"}, time.Second)
	b.Dirty("p", "k")
	b.Ack("p", seq)
	if b.PendingCount("p") != 1 {
		t.Fatal("ack evicted a change newer than the frame")
	}

	b2 := NewDeltaBuffer("p")
	b2.Dirty("p", "k")
	s2 := b2.NextSeq("p")
	b2.MarkSent("p", s2, []string{"k"}, time.Second)
	b2.Dirty("p", "k")
	b2.Requeue("p", time.Hour)
	if b2.PendingCount("p") != 1 {
		t.Fatalf("pending = %d after requeue with newer version", b2.PendingCount("p"))
	}
}

func TestDeltaBufferDownPeerAccumulates(t *testing.T) {
	// A peer that never acks accumulates the coalesced key set, not a
	// growing retransmission backlog.
	b := NewDeltaBuffer("p")
	for turn := 0; turn < 5; turn++ {
		b.Dirty("p", "k1")
		b.Dirty("p", "k2")
		b.Requeue("p", time.Duration(turn)*time.Second)
		seq := b.NextSeq("p")
		b.MarkSent("p", seq, b.Pending("p"), time.Duration(turn)*time.Second)
	}
	b.Requeue("p", time.Hour)
	if got := b.Pending("p"); len(got) != 2 {
		t.Fatalf("pending = %v, want exactly the two coalesced keys", got)
	}
}

func TestDeltaBufferUnknownPeer(t *testing.T) {
	b := NewDeltaBuffer()
	b.Dirty("ghost", "k")
	if b.PendingCount("ghost") != 0 || b.Pending("ghost") != nil {
		t.Fatal("unknown peer tracked")
	}
	if b.Ack("ghost", 1) {
		t.Fatal("unknown peer acked")
	}
}

// refDeltaBuffer is the plain set-based model DeltaBuffer must agree
// with: per peer a pending key set, and per sent frame its send time and
// the keys that were pending when it was cut.
type refDeltaBuffer struct {
	pending  map[string]map[string]bool
	inFlight map[string]map[uint64]refFrame
	nextSeq  map[string]uint64
}

type refFrame struct {
	at   time.Duration
	keys map[string]bool
}

func newRefDeltaBuffer(peers []string) *refDeltaBuffer {
	r := &refDeltaBuffer{
		pending:  map[string]map[string]bool{},
		inFlight: map[string]map[uint64]refFrame{},
		nextSeq:  map[string]uint64{},
	}
	for _, p := range peers {
		r.pending[p] = map[string]bool{}
		r.inFlight[p] = map[uint64]refFrame{}
	}
	return r
}

func (r *refDeltaBuffer) pendingSorted(peer string) []string {
	var out []string
	for k := range r.pending[peer] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestDeltaBufferMatchesSetModel runs random sequences of every
// mutating call over three tracked peers (and one untracked) and checks
// Pending, PendingCount and Ack's report against the reference model
// after each step.
func TestDeltaBufferMatchesSetModel(t *testing.T) {
	peers := []string{"p0", "p1", "p2"}
	all := append([]string{"stranger"}, peers...)
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewDeltaBuffer(peers...)
		ref := newRefDeltaBuffer(peers)
		var now time.Duration
		for step := 0; step < 300; step++ {
			now += time.Duration(rng.Intn(100)) * time.Millisecond
			peer := all[rng.Intn(len(all))]
			key := keys[rng.Intn(len(keys))]
			var op string
			switch rng.Intn(6) {
			case 0:
				op = "Dirty"
				b.Dirty(peer, key)
				if set, ok := ref.pending[peer]; ok {
					set[key] = true
				}
			case 1:
				op = "DirtyAll"
				b.DirtyAll(key)
				for _, set := range ref.pending {
					set[key] = true
				}
			case 2:
				op = "Drop"
				b.Drop(peer, key)
				delete(ref.pending[peer], key)
			case 3:
				op = "MarkSent"
				// A frame may name keys that are no longer pending; only
				// the pending ones go in flight.
				var sent []string
				for _, k := range keys {
					if rng.Intn(2) == 0 {
						sent = append(sent, k)
					}
				}
				seq := b.NextSeq(peer)
				if _, ok := ref.pending[peer]; ok {
					ref.nextSeq[peer]++
					if seq != ref.nextSeq[peer] {
						t.Fatalf("seed %d step %d: NextSeq(%s) = %d, model %d", seed, step, peer, seq, ref.nextSeq[peer])
					}
				} else if seq != 0 {
					t.Fatalf("seed %d step %d: NextSeq(%s) = %d for an untracked peer", seed, step, peer, seq)
				}
				b.MarkSent(peer, seq, sent, now)
				if set, ok := ref.pending[peer]; ok {
					fr := refFrame{at: now, keys: map[string]bool{}}
					for _, k := range sent {
						if set[k] {
							fr.keys[k] = true
							delete(set, k)
						}
					}
					if len(fr.keys) > 0 {
						ref.inFlight[peer][seq] = fr
					}
				}
			case 4:
				op = "Ack"
				seq := uint64(rng.Intn(int(ref.nextSeq[peer]) + 2))
				got := b.Ack(peer, seq)
				_, want := ref.inFlight[peer][seq]
				delete(ref.inFlight[peer], seq)
				if got != want {
					t.Fatalf("seed %d step %d: Ack(%s, %d) = %v, model %v", seed, step, peer, seq, got, want)
				}
			case 5:
				op = "Requeue"
				cutoff := now - time.Duration(rng.Intn(1000))*time.Millisecond
				b.Requeue(peer, cutoff)
				for seq, fr := range ref.inFlight[peer] {
					if fr.at > cutoff {
						continue
					}
					for k := range fr.keys {
						ref.pending[peer][k] = true
					}
					delete(ref.inFlight[peer], seq)
				}
			}
			for _, p := range all {
				want := ref.pendingSorted(p)
				if got := b.Pending(p); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d after %s(%s, %s): Pending(%s) = %v, model %v", seed, step, op, peer, key, p, got, want)
				}
				if got := b.PendingCount(p); got != len(want) {
					t.Fatalf("seed %d step %d after %s: PendingCount(%s) = %d, model %d", seed, step, op, p, got, len(want))
				}
			}
		}
	}
}
