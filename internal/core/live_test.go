package core

import (
	"testing"
	"time"

	"repro/internal/fault"
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
