package space

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func newTestMap(t *testing.T) *Map {
	t.Helper()
	m := NewMap()
	m.AddDomain(Domain{ID: "campus", Jurisdiction: JurisdictionGDPR, Trusted: true})
	m.AddDomain(Domain{ID: "city", Jurisdiction: JurisdictionCCPA, Trusted: false})
	if err := m.AddZone(Zone{ID: "floor1", Min: Point{0, 0}, Max: Point{100, 100}, DomainID: "campus"}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddZone(Zone{ID: "street", Min: Point{200, 0}, Max: Point{400, 100}, DomainID: "city"}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPointDistance(t *testing.T) {
	got := Point{0, 0}.Distance(Point{3, 4})
	if got != 5 {
		t.Fatalf("Distance = %v, want 5", got)
	}
}

func TestZoneContains(t *testing.T) {
	z := Zone{Min: Point{0, 0}, Max: Point{10, 10}}
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"inside", Point{5, 5}, true},
		{"on edge", Point{10, 10}, true},
		{"outside x", Point{11, 5}, false},
		{"outside y", Point{5, -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := z.Contains(tt.p); got != tt.want {
				t.Fatalf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestAddZoneUnknownDomain(t *testing.T) {
	m := NewMap()
	if err := m.AddZone(Zone{ID: "z", DomainID: "ghost"}); err == nil {
		t.Fatal("AddZone with unknown domain succeeded")
	}
}

func TestPlaceAndZoneOf(t *testing.T) {
	m := newTestMap(t)
	m.Place("sensor1", Point{50, 50}, "campus")
	z, ok := m.ZoneOf("sensor1")
	if !ok || z.ID != "floor1" {
		t.Fatalf("ZoneOf = %v/%v, want floor1", z.ID, ok)
	}
	m.Place("nowhere", Point{150, 50}, "campus")
	if _, ok := m.ZoneOf("nowhere"); ok {
		t.Fatal("ZoneOf found a zone for a position outside all zones")
	}
}

func TestMove(t *testing.T) {
	m := newTestMap(t)
	m.Place("car", Point{50, 50}, "campus")
	if err := m.Move("car", Point{300, 50}); err != nil {
		t.Fatal(err)
	}
	z, ok := m.ZoneOf("car")
	if !ok || z.ID != "street" {
		t.Fatalf("after Move, zone = %v, want street", z.ID)
	}
	if err := m.Move("ghost", Point{0, 0}); err == nil {
		t.Fatal("Move of unknown entity succeeded")
	}
}

// TestChangesCountsZoneInputs: every call that can change what ZoneOf
// answers moves the counter, and nothing else does.
func TestChangesCountsZoneInputs(t *testing.T) {
	m := newTestMap(t)
	step := func(what string, moves bool, f func()) {
		t.Helper()
		before := m.Changes()
		f()
		if got := m.Changes() != before; got != moves {
			t.Fatalf("%s: counter moved = %v, want %v", what, got, moves)
		}
	}
	step("Place", true, func() { m.Place("car", Point{50, 50}, "campus") })
	step("Move", true, func() { _ = m.Move("car", Point{300, 50}) })
	step("AddZone", true, func() { _ = m.AddZone(Zone{ID: "floor1", Max: Point{1, 1}, DomainID: "campus"}) })
	step("Transfer", false, func() { _ = m.Transfer("car", "city") })
	step("Move of an unknown entity", false, func() { _ = m.Move("ghost", Point{}) })
	step("AddZone in an unknown domain", false, func() { _ = m.AddZone(Zone{ID: "z", DomainID: "ghost"}) })
	step("ZoneOf", false, func() { m.ZoneOf("car") })
}

func TestTransferChangesJurisdiction(t *testing.T) {
	m := newTestMap(t)
	m.Place("dev", Point{10, 10}, "campus")
	jurisdiction := func() Jurisdiction {
		pl, _ := m.PlacementOf("dev")
		d, _ := m.Domain(pl.Domain)
		return d.Jurisdiction
	}
	if j := jurisdiction(); j != JurisdictionGDPR {
		t.Fatalf("jurisdiction = %v, want GDPR", j)
	}
	if err := m.Transfer("dev", "city"); err != nil {
		t.Fatal(err)
	}
	if j := jurisdiction(); j != JurisdictionCCPA {
		t.Fatalf("after transfer jurisdiction = %v, want CCPA", j)
	}
	if err := m.Transfer("dev", "ghost"); err == nil {
		t.Fatal("Transfer to unknown domain succeeded")
	}
	if err := m.Transfer("ghost", "city"); err == nil {
		t.Fatal("Transfer of unknown entity succeeded")
	}
}

func TestRankingNearest(t *testing.T) {
	m := newTestMap(t)
	m.Place("e1", Point{10, 0}, "campus")
	m.Place("e2", Point{5, 0}, "campus")
	m.Place("e3", Point{100, 0}, "city")
	r := m.Rank([]string{"e1", "ghost", "e2", "e3"})
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (unplaced candidate dropped)", r.Len())
	}
	if got, ok := r.Nearest(Point{0, 0}); !ok || got != "e2" {
		t.Fatalf("Nearest = %q/%v, want e2", got, ok)
	}
	if got := r.Order(Point{0, 0}); !slices.Equal(got, []string{"e2", "e1", "e3"}) {
		t.Fatalf("Order = %v, want [e2 e1 e3]", got)
	}
	empty := m.Rank([]string{"ghost"})
	if _, ok := empty.Nearest(Point{}); ok || empty.Len() != 0 || len(empty.Order(Point{})) != 0 {
		t.Fatal("ranking of only unplaced candidates is not empty")
	}
}

// TestRankingIsASnapshot pins the property the lazy reporters rely on:
// a Ranking never reads the Map again, so moving a candidate after
// Rank does not change what it answers.
func TestRankingIsASnapshot(t *testing.T) {
	m := newTestMap(t)
	m.Place("near", Point{1, 0}, "campus")
	m.Place("far", Point{50, 0}, "campus")
	r := m.Rank([]string{"far", "near"})
	if err := m.Move("near", Point{99, 0}); err != nil {
		t.Fatal(err)
	}
	m.Place("far", Point{0, 0}, "city")
	if got := r.Order(Point{0, 0}); !slices.Equal(got, []string{"near", "far"}) {
		t.Fatalf("Order after the map changed = %v, want [near far]", got)
	}
}

// stableSortOrder is the construction-time ranking this package used
// to offer as Map.NearestOrder, kept as the reference Ranking is
// checked against: resolve each candidate through the map, stable-sort
// the placed ones by distance alone.
func stableSortOrder(m *Map, from Point, candidates []string) []string {
	type cand struct {
		d float64
		c string
	}
	var placed []cand
	for _, c := range candidates {
		if pl, ok := m.PlacementOf(c); ok {
			placed = append(placed, cand{d: from.Distance(pl.Position), c: c})
		}
	}
	sort.SliceStable(placed, func(i, j int) bool { return placed[i].d < placed[j].d })
	out := make([]string, len(placed))
	for i, p := range placed {
		out[i] = p.c
	}
	return out
}

// TestRankingMatchesStableSort draws random maps on a coarse integer
// grid — so exact distance ties are common — with some candidates left
// unplaced, and checks Order and Nearest against the reference sort.
func TestRankingMatchesStableSort(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMap()
		grid := func() Point { return Point{X: float64(rng.Intn(7) - 3), Y: float64(rng.Intn(7) - 3)} }
		var candidates []string
		for i, n := 0, rng.Intn(40); i < n; i++ {
			id := fmt.Sprintf("c%d", i)
			candidates = append(candidates, id)
			if rng.Intn(5) > 0 {
				m.Place(id, grid(), "")
			}
		}
		rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		r := m.Rank(candidates)
		for k := 0; k < 8; k++ {
			from := grid()
			want := stableSortOrder(m, from, candidates)
			if got := r.Order(from); !slices.Equal(got, want) {
				t.Logf("seed %d from %v: Order = %v, want %v", seed, from, got, want)
				return false
			}
			got, ok := r.Nearest(from)
			if ok != (len(want) > 0) || (ok && got != want[0]) {
				t.Logf("seed %d from %v: Nearest = %q/%v, want head of %v", seed, from, got, ok, want)
				return false
			}
		}
		return r.Len() == len(stableSortOrder(m, Point{}, candidates))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRankingTieBreaksEarlier(t *testing.T) {
	m := newTestMap(t)
	m.Place("x", Point{5, 0}, "campus")
	m.Place("y", Point{0, 5}, "campus")
	r := m.Rank([]string{"x", "y"})
	if got, _ := r.Nearest(Point{0, 0}); got != "x" {
		t.Fatalf("Nearest tie = %q, want x (earlier candidate)", got)
	}
	if got := r.Order(Point{0, 0}); !slices.Equal(got, []string{"x", "y"}) {
		t.Fatalf("Order tie = %v, want [x y] (candidate order)", got)
	}
}
