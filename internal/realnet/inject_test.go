package realnet

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/simnet"
)

// pingMsg is the trivial wire payload for the injector test.
type pingMsg struct{ N int }

// TestInjectorCrashRecover rehearses a crash/recover schedule on two
// live UDP nodes: while the fault is applied the target must drop
// traffic, silence its ticker and refuse Send; after the scheduled
// repair it must resume, with OnDown/OnUp observing both transitions.
// What the injector logs, counts and tells subscribers is the
// conformance test's (internal/fault).
func TestInjectorCrashRecover(t *testing.T) {
	RegisterWireType(pingMsg{})
	c := NewCluster(ClusterConfig{})
	defer c.Close()
	a, err := c.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddNode("b")
	if err != nil {
		t.Fatal(err)
	}

	received, ticks, downs, ups := 0, 0, 0, 0
	b.OnMessage(func(simnet.NodeID, simnet.Message) { received++ })
	b.OnDown(func() { downs++ })
	b.OnUp(func() { ups++ })
	b.Every(5*time.Millisecond, func() { ticks++ })
	// Armed before Start: the schedule counts from the cluster epoch.
	fault.NewInjector(c).Arm((&fault.Schedule{}).Crash(10*time.Millisecond, "b", 150*time.Millisecond))
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	a.Every(5*time.Millisecond, func() { a.Send("b", pingMsg{N: 1}) })

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			if cond() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	waitFor("crash fault", func() bool { return b.Down() })
	// Snapshot counters on the event loop, wait a few tick periods, and
	// verify nothing moved while down: no receives, no ticks, no Send.
	var c1, t1 int
	b.Do(func() { c1, t1 = received, ticks })
	time.Sleep(40 * time.Millisecond)
	var c2, t2 int
	b.Do(func() { c2, t2 = received, ticks })
	if c2 != c1 || t2 != t1 {
		t.Fatalf("activity while down: received %d→%d, ticks %d→%d", c1, c2, t1, t2)
	}
	if b.Send("a", pingMsg{N: 2}) {
		t.Fatal("Send succeeded on a crashed node")
	}

	waitFor("scheduled repair", func() bool { return !b.Down() })
	waitFor("traffic after recovery", func() bool {
		var c int
		b.Do(func() { c = received })
		return c > c2
	})
	var gotDowns, gotUps int
	b.Do(func() { gotDowns, gotUps = downs, ups })
	if gotDowns != 1 || gotUps != 1 {
		t.Fatalf("transitions: OnDown=%d OnUp=%d, want 1/1", gotDowns, gotUps)
	}
}
