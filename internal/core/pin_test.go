package core

import "testing"

// TestCityJournalsPinned pins journal hashes above paper scale, where
// the corpus (every entry 4-zone) does not reach: 200-member gossip,
// zoned placement over hundreds of hosts, a 208-member Raft group and
// wheel buckets thousands of entries deep. A hot-path change that moves
// a single event at city scale fails here.
func TestCityJournalsPinned(t *testing.T) {
	pins := []struct {
		tier string
		cfg  ScenarioConfig
		arch Archetype
		hash string
	}{
		{"city-smoke", CityScenarioSmoke(), ML1, "7d47cbfae7f403e8eb153006a288be856707b9dfbcca64d6d925f9ce38790196"},
		{"city-smoke", CityScenarioSmoke(), ML2, "9394f3e78a8a42559bd718434f31df36aa45607c39483b9b3dac6eb13f6e5dfc"},
		{"city-smoke", CityScenarioSmoke(), ML3, "f287ddcdf147603a0200b3087e016b527414c018b07f09b09ed9e9d500eb896b"},
		{"city-smoke", CityScenarioSmoke(), ML4, "c3f43edc30bfbe148d30c3fcc847f7f7641e13f43957956def72173985fa9fa6"},
		{"city", CityScenario(), ML4, "41f6fd67cecdbeba37a338b30db00d5e55a9863f56abeb76c172791fa23b86d4"},
	}
	for _, p := range pins {
		t.Run(p.tier+"/"+p.arch.String(), func(t *testing.T) {
			if p.tier == "city" && testing.Short() {
				t.Skip("the full city is seconds of work; -short pins the smoke tier only")
			}
			cfg := p.cfg
			cfg.Seed, cfg.Shards = 1, 0
			sys := NewSystem(cfg, p.arch)
			sys.Run()
			if got := sys.JournalHash(); got != p.hash {
				t.Errorf("journal %s, pinned %s", got, p.hash)
			}
		})
	}
}
