package fault

import (
	"testing"
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

func TestCampaignDeterministic(t *testing.T) {
	c := Campaign{
		Seed:       9,
		Horizon:    10 * time.Minute,
		Targets:    []simnet.NodeID{"a", "b", "c"},
		MTBF:       time.Minute,
		MeanRepair: 10 * time.Second,
	}
	s1, s2 := c.Generate(), c.Generate()
	e1, e2 := s1.Events(), s2.Events()
	if len(e1) == 0 {
		t.Fatal("campaign generated no events")
	}
	if len(e1) != len(e2) {
		t.Fatalf("lengths differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i].At != e2[i].At || e1[i].Kind != e2[i].Kind || e1[i].Node != e2[i].Node {
			t.Fatalf("event %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

func TestCampaignCrashesPairedWithRecoveries(t *testing.T) {
	c := Campaign{
		Seed:       3,
		Horizon:    30 * time.Minute,
		Targets:    []simnet.NodeID{"a", "b"},
		MTBF:       2 * time.Minute,
		MeanRepair: 20 * time.Second,
	}
	crashes, recoveries := 0, 0
	for _, ev := range c.Generate().Events() {
		switch ev.Kind {
		case KindCrash:
			crashes++
		case KindRecover:
			recoveries++
		}
	}
	if crashes == 0 || crashes != recoveries {
		t.Fatalf("crashes = %d, recoveries = %d; want equal and >0", crashes, recoveries)
	}
}

func TestCampaignPartitions(t *testing.T) {
	c := Campaign{
		Seed:           11,
		Horizon:        time.Hour,
		Targets:        []simnet.NodeID{"a", "b", "c", "d"},
		PartitionEvery: 5 * time.Minute,
		PartitionFor:   time.Minute,
	}
	starts, ends := 0, 0
	for _, ev := range c.Generate().Events() {
		switch ev.Kind {
		case KindPartitionStart:
			starts++
			if len(ev.Groups) != 2 || len(ev.Groups[0])+len(ev.Groups[1]) != 4 {
				t.Fatalf("bad partition groups: %+v", ev.Groups)
			}
		case KindPartitionEnd:
			ends++
		}
	}
	if starts == 0 || starts != ends {
		t.Fatalf("starts = %d, ends = %d", starts, ends)
	}
}

func TestCampaignZeroRatesProduceEmptySchedule(t *testing.T) {
	c := Campaign{Seed: 1, Horizon: time.Hour, Targets: []simnet.NodeID{"a"}}
	if got := c.Generate().Len(); got != 0 {
		t.Fatalf("events = %d, want 0", got)
	}
}
