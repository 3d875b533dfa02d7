package chaos

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/realnet"
)

// TestCorpusArmsFullyOnRealnet boots every committed corpus entry's
// topology as a live loopback UDP cluster and arms its schedule on it:
// every event of every entry must arm, and none may name a node the
// topology does not have — skipped must be zero across the whole
// corpus.
func TestCorpusArmsFullyOnRealnet(t *testing.T) {
	ces, err := LoadCorpus(filepath.Join("..", "..", "corpus", "chaos"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ces) == 0 {
		t.Fatal("corpus is empty")
	}
	for _, ce := range ces {
		ce := ce
		t.Run(ce.Name, func(t *testing.T) {
			cfg, err := ce.Config()
			if err != nil {
				t.Fatal(err)
			}
			cluster := realnet.NewCluster(realnet.ClusterConfig{})
			defer cluster.Close()
			for _, id := range core.TopologyOf(cfg.Scenario).All() {
				if _, err := cluster.AddNode(id); err != nil {
					t.Fatal(err)
				}
			}
			inj := fault.NewInjector(cluster)
			inj.Arm(ce.Schedule)
			armed, skipped := inj.Armed(), inj.Skipped()
			if skipped != 0 {
				t.Fatalf("entry %s: %d of %d events target a node outside the topology", ce.Name, skipped, ce.Schedule.Len())
			}
			if armed != ce.Schedule.Len() {
				t.Fatalf("entry %s: armed %d, schedule has %d", ce.Name, armed, ce.Schedule.Len())
			}
		})
	}
}
