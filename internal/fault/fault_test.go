package fault

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simnet"
)

func TestKindString(t *testing.T) {
	if KindCrash.String() != "crash" {
		t.Fatalf("got %q", KindCrash)
	}
	if Kind(42).String() != "kind(42)" {
		t.Fatalf("got %q", Kind(42))
	}
}

func TestScheduleOrdering(t *testing.T) {
	s := &Schedule{}
	s.Crash(20*time.Millisecond, "b", 0)
	s.Crash(10*time.Millisecond, "a", 0)
	evs := s.Events()
	if evs[0].Node != "a" || evs[1].Node != "b" {
		t.Fatalf("events not sorted: %+v", evs)
	}
}

// TestEventsMatchesStableSort checks that Events orders a schedule
// exactly as a stable sort of the events by At would: by time, and in
// the order they were added among events at the same time. At is drawn
// from a handful of values so that most schedules have ties, and the
// events carry every field so that a copy that drops one shows.
func TestEventsMatchesStableSort(t *testing.T) {
	prop := func(seed int64, n uint8, instants uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		distinct := 1 + int(instants%6)
		s := &Schedule{}
		for i := 0; i < int(n); i++ {
			node := simnet.NodeID(fmt.Sprintf("n%d", i))
			s.Add(Event{
				At:      time.Duration(rng.Intn(distinct)) * time.Second,
				Kind:    Kind(1 + rng.Intn(len(kindNames))),
				Node:    node,
				Groups:  [][]simnet.NodeID{{node}},
				From:    node,
				To:      "peer",
				Latency: time.Duration(i) * time.Millisecond,
				Loss:    float64(i) / 256,
				Detail:  string(node),
			})
		}
		want := make([]Event, len(s.events))
		copy(want, s.events)
		sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
		got := s.Events()
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d, %d events over %d instants: Events differs from the stable sort", seed, n, distinct)
			return false
		}
		return len(got) == 0 || &got[0] != &s.events[0] // a copy, not the schedule itself
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashAndRecoverApplied(t *testing.T) {
	sim := simnet.New()
	sim.AddNode("n1")
	in := NewInjector(sim)
	s := &Schedule{}
	s.Crash(10*time.Millisecond, "n1", 20*time.Millisecond)
	in.Arm(s)

	sim.RunUntil(15 * time.Millisecond)
	if sim.NodeUp("n1") {
		t.Fatal("node up during scheduled downtime")
	}
	sim.RunUntil(40 * time.Millisecond)
	if !sim.NodeUp("n1") {
		t.Fatal("node not recovered")
	}
	if len(in.Log()) != 2 {
		t.Fatalf("log has %d events, want 2", len(in.Log()))
	}
}

func TestPartitionApplied(t *testing.T) {
	sim := simnet.New()
	a := sim.AddNode("a")
	b := sim.AddNode("b")
	got := 0
	b.OnMessage(func(simnet.NodeID, simnet.Message) { got++ })

	in := NewInjector(sim)
	s := &Schedule{}
	s.Partition(10*time.Millisecond, 20*time.Millisecond, []simnet.NodeID{"a"}, []simnet.NodeID{"b"})
	in.Arm(s)

	sim.At(15*time.Millisecond, func() { a.Send("b", "x") }) // during partition
	sim.At(50*time.Millisecond, func() { a.Send("b", "y") }) // after heal
	sim.RunUntil(100 * time.Millisecond)
	if got != 1 {
		t.Fatalf("delivered = %d, want 1", got)
	}
}

func TestLinkDegradeAndRestore(t *testing.T) {
	sim := simnet.New(WithNoLossSeed())
	a := sim.AddNode("a")
	b := sim.AddNode("b")
	var arrivals []time.Duration
	b.OnMessage(func(simnet.NodeID, simnet.Message) { arrivals = append(arrivals, sim.Now()) })

	in := NewInjector(sim)
	s := &Schedule{}
	s.DegradeLink(0, 100*time.Millisecond, "a", "b", 50*time.Millisecond, 0)
	in.Arm(s)

	sim.At(10*time.Millisecond, func() { a.Send("b", "slow") })
	sim.At(150*time.Millisecond, func() { a.Send("b", "fast") })
	sim.RunUntil(300 * time.Millisecond)

	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v, want 2", arrivals)
	}
	slowLat := arrivals[0] - 10*time.Millisecond
	fastLat := arrivals[1] - 150*time.Millisecond
	if slowLat < 50*time.Millisecond {
		t.Fatalf("degraded latency = %v, want ≥50ms", slowLat)
	}
	if fastLat >= 50*time.Millisecond {
		t.Fatalf("restored latency = %v, want default (<50ms)", fastLat)
	}
}

// WithNoLossSeed is a readability helper for tests.
func WithNoLossSeed() simnet.Option { return simnet.WithSeed(1) }

func TestCutLinkBlocksEverything(t *testing.T) {
	sim := simnet.New()
	a := sim.AddNode("a")
	b := sim.AddNode("b")
	got := 0
	b.OnMessage(func(simnet.NodeID, simnet.Message) { got++ })
	in := NewInjector(sim)
	s := &Schedule{}
	s.CutLink(0, 0, "a", "b") // no auto-restore
	in.Arm(s)
	for i := 0; i < 50; i++ {
		d := time.Duration(i) * time.Millisecond
		sim.At(d+time.Millisecond, func() { a.Send("b", "x") })
	}
	sim.RunUntil(time.Second)
	if got != 0 {
		t.Fatalf("cut link delivered %d messages", got)
	}
}

func TestModelLevelEventsReachSubscribersOnly(t *testing.T) {
	sim := simnet.New()
	sim.AddNode("dev")
	in := NewInjector(sim)
	var seen []Event
	in.Subscribe(func(ev Event) { seen = append(seen, ev) })

	s := &Schedule{}
	s.TransferDomain(time.Millisecond, "dev", "city")
	s.UpgradeStack(2*time.Millisecond, "dev")
	s.DrainBattery(3*time.Millisecond, "dev")
	in.Arm(s)
	sim.RunUntil(10 * time.Millisecond)

	if len(seen) != 3 {
		t.Fatalf("subscriber saw %d events, want 3", len(seen))
	}
	if seen[0].Kind != KindDomainTransfer || seen[0].Detail != "city" {
		t.Fatalf("seen[0] = %+v", seen[0])
	}
	if !sim.NodeUp("dev") {
		t.Fatal("model-level event took the node down")
	}
}

func TestInjectImmediate(t *testing.T) {
	sim := simnet.New()
	sim.AddNode("n")
	in := NewInjector(sim)
	in.Inject(Event{Kind: KindCrash, Node: "n"})
	if sim.NodeUp("n") {
		t.Fatal("Inject did not apply immediately")
	}
	if got := in.Log(); len(got) != 1 || got[0].At != 0 {
		t.Fatalf("log = %+v", got)
	}
}
