package core

import (
	"testing"
	"time"
)

// TestShardInvariance is the determinism contract for the zone-sharded
// scheduler (DESIGN.md §11): a run's resilience report AND its full
// journal hash must be byte-identical at any shard count. Shards=1 is
// the serial reference leg — the sharded event order with every lane
// merged into one — and 2/4/8 exercise real cross-shard windows.
// Sharding is allowed to change how events are executed (which
// goroutine, how batched), never what the run computes.
func TestShardInvariance(t *testing.T) {
	seeds := []int64{1, 2, 3}
	counts := []int{2, 4, 8}
	cfg := DefaultScenario()
	if testing.Short() {
		seeds = seeds[:1]
		counts = []int{2, 4}
		cfg.Duration = 5 * time.Minute
	}
	for _, seed := range seeds {
		for _, arch := range AllArchetypes() {
			c := cfg
			c.Seed = seed
			c.Shards = 1
			ref := NewSystem(c, arch)
			refRep := ref.Run()
			refHash := ref.JournalHash()

			for _, n := range counts {
				c.Shards = n
				sys := NewSystem(c, arch)
				rep := sys.Run()
				if rep != refRep {
					t.Errorf("seed %d %s shards=%d: reports differ\nserial:  %+v\nsharded: %+v",
						seed, arch, n, refRep, rep)
				}
				if h := sys.JournalHash(); h != refHash {
					t.Errorf("seed %d %s shards=%d: journal hash %s, serial %s",
						seed, arch, n, h, refHash)
				}
			}
		}
	}
}

// TestShardInvarianceCity runs the same contract at city scale — the
// tier the sharded scheduler exists for, with enough zones that every
// window carries real cross-shard traffic (WAN flows, gossip, Raft,
// CRDT sync) and the fault schedule's partitions and crashes land
// mid-window.
func TestShardInvarianceCity(t *testing.T) {
	if testing.Short() {
		t.Skip("city-tier differential is minutes of work; covered by the metropolis-determinism CI job")
	}
	cfg := CityScenarioSmoke()
	for _, arch := range AllArchetypes() {
		c := cfg
		c.Shards = 1
		ref := NewSystem(c, arch)
		refRep := ref.Run()
		refHash := ref.JournalHash()

		for _, n := range []int{2, 4, 8} {
			c.Shards = n
			sys := NewSystem(c, arch)
			rep := sys.Run()
			if rep != refRep {
				t.Errorf("%s shards=%d: reports differ\nserial:  %+v\nsharded: %+v",
					arch, n, refRep, rep)
			}
			if h := sys.JournalHash(); h != refHash {
				t.Errorf("%s shards=%d: journal hash %s, serial %s", arch, n, h, refHash)
			}
		}
	}
}

// TestShardZeroKeepsPinnedFamily pins the family boundary: a system
// with Shards left at zero must stay on the single-lane journal family
// byte-for-byte — the chaos corpus and the committed bench baselines
// depend on it. (Shards ≥ 1 is a different hash: per-node RNG streams
// replace the global draw order.)
func TestShardZeroKeepsPinnedFamily(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Duration = 5 * time.Minute
	unsharded := NewSystem(cfg, ML4)
	unsharded.Run()

	cfg.Shards = 1
	sharded := NewSystem(cfg, ML4)
	sharded.Run()

	if unsharded.JournalHash() == sharded.JournalHash() {
		// Not a failure of determinism — but if the families ever
		// collide, the "zero-lane family untouched" claim is no longer
		// being tested by the corpus replays alone. Flag it for a human.
		t.Log("note: unsharded and sharded journal families coincide for this config")
	}
	if got := unsharded.sim.ShardCount(); got != 0 {
		t.Fatalf("unsharded system reports ShardCount %d, want 0", got)
	}
	if got := sharded.sim.ShardCount(); got != 1 {
		t.Fatalf("sharded system reports ShardCount %d, want 1", got)
	}
}
