package simnet

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Shard-boundary edge cases for the zone-sharded scheduler (DESIGN.md
// §11). The conservative window ends at minNext+lookahead; the
// contract at the edge is: a cross-shard delivery may land exactly ON
// the window end (it executes in the next window), never inside it,
// and every (at, seq) order the windows realize must match the serial
// reference leg event for event.

// tinyLat is a latency small enough that the 10% jitter draw
// Int63n(lat/10+1) is always zero: deliveries land exactly at
// send+tinyLat, which lets tests place events precisely on window
// boundaries. The draw still happens, so RNG streams advance exactly
// as at realistic latencies.
const tinyLat = 8 * time.Nanosecond

// TestShardDeliveryExactlyAtLookaheadHorizon sends a cross-shard
// message whose delivery time equals the window end (send time +
// lookahead, zero jitter). The outbox guard rejects at < windowEnd;
// equality is legal and must deliver, at the same virtual time as the
// serial leg.
func TestShardDeliveryExactlyAtLookaheadHorizon(t *testing.T) {
	run := func(shards int) (got time.Duration, n int) {
		s := New(WithShards(shards), WithSeed(7), WithDefaultLatency(tinyLat))
		a := s.AddNode("a")
		b := s.AddNode("b")
		s.SetShard("b", shards-1)
		b.OnMessage(func(from NodeID, msg Message) {
			got = b.Now()
			n++
		})
		a.After(10*time.Nanosecond, func() { a.Send("b", "edge") })
		s.RunUntil(time.Millisecond)
		return got, n
	}
	wantAt, wantN := run(1)
	if wantN != 1 || wantAt != 10*time.Nanosecond+tinyLat {
		t.Fatalf("serial leg: delivered %d at %v, want 1 at %v", wantN, wantAt, 10*time.Nanosecond+tinyLat)
	}
	for _, shards := range []int{2, 4} {
		at, n := run(shards)
		if n != wantN || at != wantAt {
			t.Errorf("shards=%d: delivered %d at %v, serial delivered %d at %v", shards, n, at, wantN, wantAt)
		}
	}
}

// TestShardWindowEdgeOrdering races a cross-shard delivery against the
// receiver's own timer at the same instant. The delivery carries the
// sender's logical key and the timer the receiver's; the sender was
// registered first, so its rank — and therefore the delivery — sorts
// first at equal times, whichever side of a window boundary the
// instant falls on.
func TestShardWindowEdgeOrdering(t *testing.T) {
	run := func(shards int) []string {
		s := New(WithShards(shards), WithSeed(7), WithDefaultLatency(tinyLat))
		a := s.AddNode("a") // rank 1: delivery key wins ties
		b := s.AddNode("b")
		s.SetShard("b", shards-1)
		var order []string
		b.OnMessage(func(from NodeID, msg Message) {
			order = append(order, fmt.Sprintf("msg@%v", b.Now()))
		})
		// Both land at 18ns: the delivery (sent 10ns + 8ns latency) and
		// b's own timer.
		b.After(18*time.Nanosecond, func() {
			order = append(order, fmt.Sprintf("timer@%v", b.Now()))
		})
		a.After(10*time.Nanosecond, func() { a.Send("b", "tie") })
		s.RunUntil(time.Millisecond)
		return order
	}
	want := run(1)
	if len(want) != 2 || want[0] != "msg@18ns" || want[1] != "timer@18ns" {
		t.Fatalf("serial leg order = %v, want [msg@18ns timer@18ns]", want)
	}
	for _, shards := range []int{2, 4} {
		got := run(shards)
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("shards=%d: order = %v, serial = %v", shards, got, want)
		}
	}
}

// TestShardSingleLaneDegeneratesToSerial pins the degenerate case:
// with every node on one lane of a multi-shard sim, runShards sees a
// single active lane and runs it inline — no goroutine handoff, and a
// trace identical to the one-shard reference.
func TestShardSingleLaneDegeneratesToSerial(t *testing.T) {
	run := func(shards int) []string {
		s := New(WithShards(shards), WithSeed(11), WithDefaultLatency(time.Millisecond))
		var trace []string
		const n = 4
		eps := make([]*Endpoint, n)
		for i := 0; i < n; i++ {
			i := i
			id := NodeID(fmt.Sprintf("n%d", i))
			eps[i] = s.AddNode(id) // all on default lane 0
			eps[i].OnMessage(func(from NodeID, msg Message) {
				trace = append(trace, fmt.Sprintf("%v %s->n%d", eps[i].Now(), from, i))
				// Bounce to a pseudo-random peer from the node's own
				// stream; dies out via loss of interest after 100 hops.
				if len(trace) < 100 {
					eps[i].Send(NodeID(fmt.Sprintf("n%d", eps[i].Rand().Intn(n))), msg)
				}
			})
		}
		eps[0].After(time.Millisecond, func() { eps[0].Send("n1", "seed") })
		s.RunUntil(time.Second)
		return trace
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("serial leg produced an empty trace")
	}
	for _, shards := range []int{2, 8} {
		got := run(shards)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d events, serial %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: trace[%d] = %q, serial %q", shards, i, got[i], want[i])
			}
		}
	}
}

// TestShardInvarianceProperty is the simnet-level shard-invariance
// property test: a randomized workload — per-node tickers fanning out
// to pseudo-random peers across lanes, with loss and duplicates — must
// produce identical per-node receive traces at every shard count. All
// randomness is drawn from per-node streams, so the expectation is
// exact equality, not statistical similarity.
func TestShardInvarianceProperty(t *testing.T) {
	const nodes = 12
	run := func(seed int64, shards int) map[NodeID][]string {
		s := New(WithShards(shards), WithSeed(seed),
			WithDefaultLatency(2*time.Millisecond), WithDefaultLoss(0.05), WithDuplicateProb(0.02))
		// One slice slot per node: callbacks run on their node's lane
		// goroutine, so writing only the node's own index keeps the
		// collection race-free without a lock (a shared map here races
		// across lanes within a window).
		perNode := make([][]string, nodes)
		eps := make([]*Endpoint, nodes)
		for i := 0; i < nodes; i++ {
			i := i
			id := NodeID(fmt.Sprintf("n%d", i))
			eps[i] = s.AddNode(id)
			s.SetShard(id, i%shards)
			eps[i].OnMessage(func(from NodeID, msg Message) {
				perNode[i] = append(perNode[i], fmt.Sprintf("%v %s %v", eps[i].Now(), from, msg))
			})
			eps[i].Every(time.Duration(10+i)*time.Millisecond, func() {
				peer := NodeID(fmt.Sprintf("n%d", eps[i].Rand().Intn(nodes)))
				eps[i].Send(peer, eps[i].Rand().Intn(1000))
			})
		}
		s.RunUntil(2 * time.Second)
		traces := make(map[NodeID][]string, nodes)
		for i, tr := range perNode {
			traces[NodeID(fmt.Sprintf("n%d", i))] = tr
		}
		return traces
	}
	for _, seed := range []int64{1, 42} {
		ref := run(seed, 1)
		total := 0
		for _, tr := range ref {
			total += len(tr)
		}
		if total == 0 {
			t.Fatalf("seed %d: serial leg delivered nothing", seed)
		}
		for _, shards := range []int{2, 3, 4, 8} {
			got := run(seed, shards)
			for id, wantTr := range ref {
				gotTr := got[id]
				if len(gotTr) != len(wantTr) {
					t.Fatalf("seed %d shards=%d node %s: %d events, serial %d",
						seed, shards, id, len(gotTr), len(wantTr))
				}
				for i := range wantTr {
					if gotTr[i] != wantTr[i] {
						t.Fatalf("seed %d shards=%d node %s event %d = %q, serial %q",
							seed, shards, id, i, gotTr[i], wantTr[i])
					}
				}
			}
		}
	}
}

// TestShardNodeFootprint bounds what AddNode allocates per node with
// shard lanes. Each sharded node owns a random stream; a math/rand
// source there is 4.9 KB per node, which alone breaks the bound, so
// the metropolis cannot quietly go back to one.
func TestShardNodeFootprint(t *testing.T) {
	const (
		nodes   = 10000
		ceiling = 512 // heap bytes per node
	)
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("n%d", i))
	}
	s := New(WithShards(2))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, id := range ids {
		s.AddNode(id)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	per := float64(after.TotalAlloc-before.TotalAlloc) / nodes
	t.Logf("AddNode on 2 lanes: %.0f B/node", per)
	if per > ceiling {
		t.Fatalf("AddNode allocated %.0f B/node on 2 lanes, gate is %d", per, ceiling)
	}
}

// TestNodeStreamsAreSeededPCG pins what a sharded node draws from: a
// PCG seeded from (seed, rank), the same sequence as a fresh NewStream
// of that seed, and a different sequence for every rank.
func TestNodeStreamsAreSeededPCG(t *testing.T) {
	s := New(WithSeed(7), WithShards(2))
	a, b := s.AddNode("a"), s.AddNode("b")
	ref := NewStream(MixSeed(7, 1))
	for i := 0; i < 100; i++ {
		if got, want := a.Rand().Int63(), ref.Int63(); got != want {
			t.Fatalf("draw %d: node a got %d, NewStream(MixSeed(7, 1)) %d", i, got, want)
		}
	}
	if a.Rand().Uint64() == b.Rand().Uint64() {
		t.Fatal("nodes of different rank share a stream")
	}
	r := NewStream(42)
	first := r.Int63()
	r.Seed(42)
	if again := r.Int63(); again != first {
		t.Fatalf("Seed(42) restarted the stream at %d, want %d", again, first)
	}
}
