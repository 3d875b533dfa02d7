// Package space models the physical and administrative space an IoT
// system is deployed in: locations, zones, administrative domains and
// legal jurisdictions. The paper identifies locality as a key contextual
// characteristic of IoT (§IV, §VII): devices are spatially distributed,
// belong to administrative domains, and data is subject to the
// jurisdiction it is produced in. This package gives those concepts an
// analyzable representation, with distances and nearest-candidate
// rankings that failover and placement decisions are made from.
package space

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Point is a position in a 2-D deployment plane, in meters.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance between two points in meters.
func (p Point) Distance(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Jurisdiction is a legal data-protection regime, e.g. GDPR or CCPA.
// Privacy policies in the data plane reference jurisdictions.
type Jurisdiction string

// Common jurisdictions used throughout examples and experiments.
const (
	JurisdictionGDPR Jurisdiction = "GDPR"
	JurisdictionCCPA Jurisdiction = "CCPA"
)

// DomainID identifies an administrative domain (an owner/operator scope).
type DomainID string

// Domain is an administrative domain: a set of devices under one
// operational authority, within one legal jurisdiction and one level of
// trust. Transfer of a device across domains is one of the paper's
// disruption classes.
type Domain struct {
	ID           DomainID
	Jurisdiction Jurisdiction
	// Trusted reports whether components in this domain are trusted by
	// the system operator. Data policies typically forbid sensitive
	// flows into untrusted domains.
	Trusted bool
}

// ZoneID identifies a spatial zone.
type ZoneID string

// Zone is a rectangular region of the deployment plane, e.g. a building
// floor, a street block, or a hospital ward. Zones scope edge
// responsibility: an edge node manages the devices inside its zone.
type Zone struct {
	ID       ZoneID
	Min, Max Point
	DomainID DomainID
}

// Contains reports whether p lies inside the zone (inclusive bounds).
func (z Zone) Contains(p Point) bool {
	return p.X >= z.Min.X && p.X <= z.Max.X && p.Y >= z.Min.Y && p.Y <= z.Max.Y
}

// Placement records where an entity is and which domain currently owns
// it. Ownership can diverge from the zone's domain after a transfer.
type Placement struct {
	Position Point
	Domain   DomainID
}

// Map is the spatial model: zones, domains and entity placements. The
// zero value is not usable; construct with NewMap.
type Map struct {
	domains    map[DomainID]Domain
	zones      map[ZoneID]Zone
	placements map[string]Placement
	zoneOrder  []ZoneID // deterministic iteration
	// changes counts the calls that can change an entity's zone; see
	// Changes.
	changes uint64
}

// NewMap constructs an empty spatial model.
func NewMap() *Map {
	return &Map{
		domains:    make(map[DomainID]Domain),
		zones:      make(map[ZoneID]Zone),
		placements: make(map[string]Placement),
	}
}

// AddDomain registers an administrative domain.
func (m *Map) AddDomain(d Domain) {
	m.domains[d.ID] = d
}

// Domain returns the domain with the given ID.
func (m *Map) Domain(id DomainID) (Domain, bool) {
	d, ok := m.domains[id]
	return d, ok
}

// AddZone registers a zone. The zone's domain must already exist.
func (m *Map) AddZone(z Zone) error {
	if _, ok := m.domains[z.DomainID]; !ok && z.DomainID != "" {
		return fmt.Errorf("space: zone %q references unknown domain %q", z.ID, z.DomainID)
	}
	if _, dup := m.zones[z.ID]; !dup {
		m.zoneOrder = append(m.zoneOrder, z.ID)
	}
	m.zones[z.ID] = z
	m.changes++
	return nil
}

// Place positions an entity and assigns its owning domain.
func (m *Map) Place(entity string, p Point, domain DomainID) {
	m.placements[entity] = Placement{Position: p, Domain: domain}
	m.changes++
}

// Move updates an entity's position, keeping its domain.
func (m *Map) Move(entity string, p Point) error {
	pl, ok := m.placements[entity]
	if !ok {
		return fmt.Errorf("space: unknown entity %q", entity)
	}
	pl.Position = p
	m.placements[entity] = pl
	m.changes++
	return nil
}

// Transfer moves an entity to a different administrative domain. This is
// the "transfer of administrative domains" disruption from the paper.
func (m *Map) Transfer(entity string, to DomainID) error {
	pl, ok := m.placements[entity]
	if !ok {
		return fmt.Errorf("space: unknown entity %q", entity)
	}
	if _, ok := m.domains[to]; !ok {
		return fmt.Errorf("space: unknown domain %q", to)
	}
	pl.Domain = to
	m.placements[entity] = pl
	return nil
}

// PlacementOf returns an entity's placement.
func (m *Map) PlacementOf(entity string) (Placement, bool) {
	pl, ok := m.placements[entity]
	return pl, ok
}

// ZoneOf returns the first zone (in registration order) containing the
// entity's position.
func (m *Map) ZoneOf(entity string) (Zone, bool) {
	pl, ok := m.placements[entity]
	if !ok {
		return Zone{}, false
	}
	for _, id := range m.zoneOrder {
		if z := m.zones[id]; z.Contains(pl.Position) {
			return z, true
		}
	}
	return Zone{}, false
}

// Changes counts the AddZone, Place and Move calls so far — everything
// that can change what ZoneOf answers. Whatever is derived from zones
// and positions (the orchestrator's per-zone host lists) is current
// while the count is the one it was built at.
func (m *Map) Changes() uint64 { return m.changes }

// Ranking is an immutable snapshot of a candidate set's placed members
// — their IDs and positions, in candidate order — from which any point
// can ask for its nearest candidate or for all of them nearest first.
// The snapshot is taken once, by Rank: later Place, Move and Transfer
// calls on the Map do not reach it, so a Ranking may be read from any
// goroutine with no further synchronisation. One Ranking serves every
// asker; nothing per asker is stored, so ranking n askers against e
// candidates costs e up front and e·log e only for the askers that
// want the whole order.
type Ranking struct {
	ids []string
	pos []Point
}

// Rank snapshots the placed candidates, keeping their given order;
// unplaced candidates are dropped.
func (m *Map) Rank(candidates []string) *Ranking {
	r := &Ranking{
		ids: make([]string, 0, len(candidates)),
		pos: make([]Point, 0, len(candidates)),
	}
	for _, c := range candidates {
		if pl, ok := m.placements[c]; ok {
			r.ids = append(r.ids, c)
			r.pos = append(r.pos, pl.Position)
		}
	}
	return r
}

// Len returns the number of ranked (placed) candidates.
func (r *Ranking) Len() int { return len(r.ids) }

// Nearest returns the candidate closest to from, preferring earlier
// candidates on ties — element 0 of Order(from) without the sort. It
// returns false if no candidate was placed.
func (r *Ranking) Nearest(from Point) (string, bool) {
	best, bestDist := -1, math.Inf(1)
	for i, p := range r.pos {
		if d := from.Distance(p); d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		return "", false
	}
	return r.ids[best], true
}

// Order returns the candidates by ascending distance from from, ties
// broken by candidate order. The result is a fresh slice.
func (r *Ranking) Order(from Point) []string {
	type cand struct {
		d float64
		i int
	}
	byDist := make([]cand, len(r.pos))
	for i, p := range r.pos {
		byDist[i] = cand{d: from.Distance(p), i: i}
	}
	// Candidate indexes are distinct, so comparing them after the
	// distance makes the order total and an unstable sort stable.
	slices.SortFunc(byDist, func(a, b cand) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	out := make([]string, len(byDist))
	for i, c := range byDist {
		out[i] = r.ids[c.i]
	}
	return out
}
