package fault_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/realnet"
	"repro/internal/simnet"
)

// conformanceIDs is the topology both worlds boot; "ghost" is in
// neither.
var conformanceIDs = []simnet.NodeID{"a", "b", "c", "d"}

// observedWorld is what the test reads back after each event, on top of
// the fault surface the injector drives.
type observedWorld interface {
	fault.World
	NodeUp(id simnet.NodeID) bool
	Reachable(from, to simnet.NodeID) bool
}

// trace is everything one world showed while a schedule ran.
type trace struct {
	Events  []fault.Event // subscriber call sequence
	States  []string      // NodeUp and Reachable matrices after each event
	Log     []fault.Event
	Armed   int
	Skipped int
}

// drive arms s on w through the one injector, runs the world with run
// until every event has fired, and returns what it showed. The
// subscriber runs where the event is applied, so the matrices it reads
// are the state right after that event on either world.
func drive(w observedWorld, s *fault.Schedule, run func(fired <-chan struct{})) trace {
	var tr trace
	fired := make(chan struct{})
	inj := fault.NewInjector(w)
	inj.Subscribe(func(ev fault.Event) {
		tr.Events = append(tr.Events, ev)
		var b strings.Builder
		for _, id := range append(conformanceIDs, "ghost") {
			fmt.Fprintf(&b, "%s:up=%v", id, w.NodeUp(id))
			for _, to := range conformanceIDs {
				fmt.Fprintf(&b, " %v", w.Reachable(id, to))
			}
			b.WriteString("; ")
		}
		tr.States = append(tr.States, b.String())
		if len(tr.Events) == s.Len() {
			close(fired)
		}
	})
	inj.Arm(s)
	run(fired)
	tr.Log, tr.Armed, tr.Skipped = inj.Log(), inj.Armed(), inj.Skipped()
	return tr
}

// TestInjectorConformance drives the same schedules through the one
// injector against a simulated and a live world and requires the two
// to be indistinguishable through the fault surface: the same node and
// reachability state after every event, the same log, the same
// subscriber calls, the same armed and skipped counts — events at one
// instant included, which both worlds run in the order they were armed.
// What the sockets do under each fault (drops, delayed packets, seeded
// loss) is internal/realnet's to test.
func TestInjectorConformance(t *testing.T) {
	const step = 15 * time.Millisecond
	ab := [][]simnet.NodeID{{"a"}, {"b", "c"}} // d: the implicit group
	cases := []struct {
		name    string
		sched   func(s *fault.Schedule)
		skipped int
	}{
		{"overlapping partitions healed by one end", func(s *fault.Schedule) {
			s.Partition(1*step, 0, ab...)
			s.Partition(2*step, 0, []simnet.NodeID{"a", "b"}, []simnet.NodeID{"c"})
			s.Add(fault.Event{At: 3 * step, Kind: fault.KindPartitionEnd})
		}, 0},
		{"restore without degrade", func(s *fault.Schedule) {
			s.Add(fault.Event{At: 1 * step, Kind: fault.KindLinkRestore, From: "a", To: "b"})
			s.DegradeLink(2*step, step, "a", "b", 5*time.Millisecond, 0.5)
			s.CutLink(4*step, step, "c", "ghost")
		}, 0},
		{"crash plus partition of one node", func(s *fault.Schedule) {
			s.Crash(1*step, "b", 2*step)
			s.Partition(2*step, 2*step, []simnet.NodeID{"a"}, []simnet.NodeID{"b"})
		}, 0},
		{"crash and recover of an unknown id", func(s *fault.Schedule) {
			s.Crash(1*step, "ghost", step)
			s.Crash(3*step, "d", 0)
		}, 2},
		{"events at one instant run in arm order", func(s *fault.Schedule) {
			s.Partition(1*step, 0, ab...)
			s.Crash(1*step, "c", step)
			s.Partition(1*step, 0, []simnet.NodeID{"a", "b"}, []simnet.NodeID{"c"})
			s.Add(fault.Event{At: 2 * step, Kind: fault.KindPartitionEnd})
		}, 0},
		{"model-level kinds", func(s *fault.Schedule) {
			s.TransferDomain(1*step, "a", "foreign")
			s.UpgradeStack(2*step, "b")
			s.DrainBattery(3*step, "c")
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &fault.Schedule{}
			tc.sched(s)

			sim := simnet.New()
			for _, id := range conformanceIDs {
				sim.AddNode(id)
			}
			want := drive(sim, s, func(<-chan struct{}) { sim.Run() })

			cluster := realnet.NewCluster(realnet.ClusterConfig{Seed: 1, Serialize: true})
			defer cluster.Close()
			for _, id := range conformanceIDs {
				if _, err := cluster.AddNode(id); err != nil {
					t.Fatal(err)
				}
			}
			got := drive(cluster, s, func(fired <-chan struct{}) {
				if err := cluster.Start(); err != nil {
					t.Fatal(err)
				}
				select {
				case <-fired:
				case <-time.After(5 * time.Second):
					t.Fatal("live schedule did not finish")
				}
			})

			if want.Armed != s.Len() || want.Skipped != tc.skipped {
				t.Fatalf("sim armed=%d skipped=%d, want %d/%d", want.Armed, want.Skipped, s.Len(), tc.skipped)
			}
			if len(want.Events) != s.Len() {
				t.Fatalf("sim fired %d of %d events", len(want.Events), s.Len())
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("live world diverged from the simulator\n live: %+v\n  sim: %+v", got, want)
			}
		})
	}
}
