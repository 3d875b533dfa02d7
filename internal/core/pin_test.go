package core

import (
	"fmt"
	"testing"
)

// journalPin is one pinned run: a tier's scenario at seed 1.
type journalPin struct {
	tier   string
	cfg    ScenarioConfig
	arch   Archetype
	shards int
	hash   string
}

// TestPaperJournalsPinned pins the paper matrix, seed 1. The corpus
// replays ML1 and ML4 at paper scale under its own schedules, but not
// the default run every table starts from, so a change that moves only
// that run would otherwise pass unseen.
func TestPaperJournalsPinned(t *testing.T) {
	checkPins(t, []journalPin{
		{"paper", DefaultScenario(), ML1, 0, "9c1bca0b416a5efefac58c1dff03a8853413e415d90298e859f057082c531fd7"},
		{"paper", DefaultScenario(), ML2, 0, "71e1e9118daf2a6859c0bfe53d7b9db152856ca28aa8a4ca0c2cbd83dad859d7"},
		{"paper", DefaultScenario(), ML3, 0, "7b88d5b62aca277160a7251d3bb9b1ac19694e7bbced7882c4a25428b903a3eb"},
		{"paper", DefaultScenario(), ML4, 0, "8673692d63f082252b6192f6e25fd942a5cf6559fdb32cbb901aafdf357b8ecc"},
	})
}

// TestCityJournalsPinned pins journal hashes above paper scale, where
// the corpus (every entry 4-zone) does not reach: 200-member gossip,
// zoned placement over hundreds of hosts, a 208-member Raft group and
// wheel buckets thousands of entries deep. A hot-path change that moves
// a single event at city scale fails here. The shards ≥ 1 rows pin the
// sharded family (per-node PCG streams, logical keys) — one hash at
// every lane count.
func TestCityJournalsPinned(t *testing.T) {
	const smokeML4Sharded = "67d551a6364cd0205863b0b1ff86e3b922bca516f51d73b591b0389864e29975"
	checkPins(t, []journalPin{
		{"city-smoke", CityScenarioSmoke(), ML1, 0, "7d47cbfae7f403e8eb153006a288be856707b9dfbcca64d6d925f9ce38790196"},
		{"city-smoke", CityScenarioSmoke(), ML2, 0, "9394f3e78a8a42559bd718434f31df36aa45607c39483b9b3dac6eb13f6e5dfc"},
		{"city-smoke", CityScenarioSmoke(), ML3, 0, "f287ddcdf147603a0200b3087e016b527414c018b07f09b09ed9e9d500eb896b"},
		{"city-smoke", CityScenarioSmoke(), ML4, 0, "c3f43edc30bfbe148d30c3fcc847f7f7641e13f43957956def72173985fa9fa6"},
		{"city-smoke", CityScenarioSmoke(), ML4, 1, smokeML4Sharded},
		{"city-smoke", CityScenarioSmoke(), ML4, 2, smokeML4Sharded},
		{"city", CityScenario(), ML4, 0, "41f6fd67cecdbeba37a338b30db00d5e55a9863f56abeb76c172791fa23b86d4"},
	})
}

// TestHardenedJournalsPinned pins the hardened profile's ML4 runs at
// seed 1. riotchaos verify judges hardened corpus runs by verdict only,
// so without these rows a change that moved a hardened journal — and
// left every default journal alone — would pass unseen.
func TestHardenedJournalsPinned(t *testing.T) {
	const smokeML4Sharded = "3c5dd44bac56f6f88ba7dc45a4cb183336f2566c6dde3f1edd2d51cceeb54633"
	checkPins(t, []journalPin{
		{"paper", DefaultScenario().Hardened(), ML4, 0, "832f1ff9477c04b6c6a6a29efe2b91069bf2c92b43d894f7c26cf7c701d3ef0e"},
		{"city-smoke", CityScenarioSmoke().Hardened(), ML4, 0, "402a88ecf58bfbd3ab866d3427d734a27a17236c7d05f07b3680fed1fc8c4395"},
		{"city-smoke", CityScenarioSmoke().Hardened(), ML4, 1, smokeML4Sharded},
		{"city-smoke", CityScenarioSmoke().Hardened(), ML4, 2, smokeML4Sharded},
	})
}

// checkPins runs every pin at seed 1 as a subtest named
// tier/arch[/shardsN] and compares its journal hash.
func checkPins(t *testing.T, pins []journalPin) {
	for _, p := range pins {
		name := p.tier + "/" + p.arch.String()
		if p.shards > 0 {
			name += fmt.Sprintf("/shards%d", p.shards)
		}
		t.Run(name, func(t *testing.T) {
			if p.tier == "city" && testing.Short() {
				t.Skip("the full city is seconds of work; -short pins the smoke tier only")
			}
			cfg := p.cfg
			cfg.Seed, cfg.Shards = 1, p.shards
			sys := NewSystem(cfg, p.arch)
			sys.Run()
			if got := sys.JournalHash(); got != p.hash {
				t.Errorf("journal %s, pinned %s", got, p.hash)
			}
		})
	}
}
