package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/realnet"
	"repro/internal/simnet"
)

// liveSmokeConfig is a small scenario that finishes in a few wall
// seconds at scale 0.05: 2 zones, 40 s virtual horizon.
func liveSmokeConfig() ScenarioConfig {
	cfg := DefaultScenario()
	cfg.Zones = 2
	cfg.TempSensorsPerZone = 1
	cfg.Cloudlets = 1
	cfg.Duration = 40 * time.Second
	return cfg
}

// TestLiveSystemSmoke boots the scenario on real loopback UDP sockets,
// injects a crash and a partition on wall-clock timers, and checks the
// run produces a coherent report through the same measurement pipeline
// as simulation: every scheduled event armed, traffic flowed on real
// sockets, and the fault events landed in the journal.
func TestLiveSystemSmoke(t *testing.T) {
	cfg := liveSmokeConfig()
	// A single listed group suffices for the partition: unlisted nodes
	// land in the implicit complement group, as in simnet.
	s := (&fault.Schedule{}).
		Crash(8*time.Second, gatewayID(0), 10*time.Second).
		Partition(20*time.Second, 8*time.Second, []simnet.NodeID{gatewayID(1)})
	cfg.Faults = s

	sys, err := NewLiveSystem(cfg, ML1, LiveConfig{TimeScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	report, info, err := sys.RunLive()
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped != 0 {
		t.Fatalf("live run skipped %d fault events (armed %d)", info.Skipped, info.Armed)
	}
	if info.Armed != s.Len() {
		t.Fatalf("armed %d events, schedule has %d", info.Armed, s.Len())
	}
	if info.Net.Sent == 0 || info.Net.Received == 0 {
		t.Fatalf("no traffic on live sockets: %+v", info.Net)
	}
	// Once the cluster has drained, every datagram sent was received or
	// dropped by a fault; send-side drops never enter Sent, so the sum
	// may exceed it.
	if st := info.Net; st.Received+st.Dropped < st.Sent {
		t.Fatalf("received %d + dropped %d < sent %d: datagrams unaccounted for", st.Received, st.Dropped, st.Sent)
	}
	if report.GoalPersistence <= 0 || report.GoalPersistence > 1 {
		t.Fatalf("GoalPersistence = %.3f, want (0,1]", report.GoalPersistence)
	}
	if report.Messages == 0 || report.Bytes == 0 {
		t.Fatalf("report carries no traffic totals: %+v", report)
	}

	faults := 0
	for _, ev := range sys.Journal() {
		if ev.Kind == EventFault {
			faults++
		}
	}
	// Crash + recover + partition-start + partition-end.
	if faults != 4 {
		t.Fatalf("journal has %d fault events, want 4:\n%s", faults, FormatJournal(sys.Journal()))
	}
}

// TestLiveSystemRejectsShards pins the seam boundary: the sharded
// scheduler is a simulator feature and must not silently degrade live.
func TestLiveSystemRejectsShards(t *testing.T) {
	cfg := liveSmokeConfig()
	cfg.Shards = 2
	if _, err := NewLiveSystem(cfg, ML1, LiveConfig{TimeScale: 0.05}); err == nil {
		t.Fatal("NewLiveSystem accepted a sharded config")
	}
}

// TestEveryOnBothWorlds runs the sampler driver on a bare simulator and
// on a live cluster at a high compression. Each calls fn with exactly
// period, 2·period, … up to the horizon and never after it. On the
// live cluster one tick stalls the loop for several periods, and the
// later ticks still carry their own instants rather than drifting with
// the loop's lateness.
func TestEveryOnBothWorlds(t *testing.T) {
	const period, horizon = 100 * time.Millisecond, 1050 * time.Millisecond
	var want []time.Duration
	for at := period; at <= horizon; at += period {
		want = append(want, at)
	}

	sim := simnet.New(simnet.WithSeed(1))
	var got []time.Duration
	every(sim, period, horizon, func(at time.Duration) {
		if now := sim.Now(); now != at {
			t.Errorf("sim: tick %v ran at %v", at, now)
		}
		got = append(got, at)
	})
	sim.RunUntil(3 * horizon)
	if !slices.Equal(got, want) {
		t.Errorf("sim ticks %v, want %v", got, want)
	}

	const scale = 0.01
	c := realnet.NewCluster(realnet.ClusterConfig{Seed: 1, TimeScale: scale, Serialize: true})
	defer c.Close()
	var live []time.Duration
	late := false
	every(c, period, horizon, func(at time.Duration) {
		// A microsecond of slack for the float conversions between the
		// virtual instant and the loop clock.
		now := c.Now()
		if now+time.Microsecond < at {
			t.Errorf("live: tick %v ran early, at %v", at, now)
		}
		if now-at >= period {
			late = true
		}
		live = append(live, at)
		if at == 3*period {
			// Stall the loop for five periods of virtual time.
			time.Sleep(time.Duration(5 * float64(period) * scale))
		}
	})
	done := make(chan struct{})
	c.At(3*horizon, func() { close(done) })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	<-done
	if !slices.Equal(live, want) {
		t.Errorf("live ticks %v, want %v", live, want)
	}
	if !late {
		t.Error("live: no tick ran a period late; the stall did not take")
	}
}
