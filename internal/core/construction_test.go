package core

import (
	"runtime"
	"testing"
)

// constructionBytesPerDevice is what NewSystem allocates, per device,
// for ML4 on two lanes at the metropolis density and the given zone
// count. TotalAlloc only ever counts up, so the figure does not depend
// on when the collector runs.
func constructionBytesPerDevice(zones int) float64 {
	cfg := MetropolisScenarioSmoke()
	cfg.Zones, cfg.Shards = zones, 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewSystem(cfg, ML4)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(TopologyOf(cfg).All()))
}

// TestMetroConstructionStaysLinear is the construction gate. Building
// the metropolis used to allocate 36.5 KB per device at 250 zones,
// most of it one full edge ordering per sensor — a sensors × edge
// structure, so the per-device figure itself grew with the zone count.
// The gate bounds the figure and, by comparing two zone counts, its
// growth: anything per-device that scales with the edge fails the
// second check long before it fails the first. The ceiling also keeps
// sharded nodes on 16-byte streams: a 4.9 KB math/rand source per node
// (the per-device figure was 9.9 KB with one) fails it.
func TestMetroConstructionStaysLinear(t *testing.T) {
	const (
		ceiling = 6 << 10 // bytes per device at 250 zones
		growth  = 0.15    // allowed relative difference between 125 and 250 zones
	)
	half, full := constructionBytesPerDevice(125), constructionBytesPerDevice(250)
	t.Logf("NewSystem(metro-smoke, ML4, 2 lanes): %.0f B/device at 125 zones, %.0f at 250", half, full)
	if full > ceiling {
		t.Errorf("%.0f B/device at 250 zones, gate is %d", full, ceiling)
	}
	if d := (full - half) / half; d > growth || d < -growth {
		t.Errorf("B/device moved %+.1f%% from 125 to 250 zones (%.0f → %.0f): something per device grows with the edge", 100*d, half, full)
	}
}
