package crdt

import (
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
