package space

import (
	"fmt"
	"time"
)

// Mover moves one entity along a list of waypoints at constant speed —
// the simplest useful mobility model for the paper's "mobility and
// unpredictable human activity" (§II): phones, vehicles and wearables
// crossing zone (and therefore responsibility and privacy-scope)
// boundaries. Drive Step from the simulation's environment loop.
type Mover struct {
	spaces    *Map
	entity    string
	waypoints []Point
	next      int
	speed     float64 // meters per second
	loop      bool
}

// NewMover creates a mover for a placed entity. Speed must be
// positive; with loop the entity patrols the waypoints forever,
// otherwise it stops at the last one.
func NewMover(m *Map, entity string, speed float64, loop bool, waypoints ...Point) (*Mover, error) {
	if _, ok := m.PlacementOf(entity); !ok {
		return nil, fmt.Errorf("space: mover for unplaced entity %q", entity)
	}
	if speed <= 0 {
		return nil, fmt.Errorf("space: mover speed %v must be positive", speed)
	}
	if len(waypoints) == 0 {
		return nil, fmt.Errorf("space: mover needs at least one waypoint")
	}
	return &Mover{
		spaces:    m,
		entity:    entity,
		waypoints: append([]Point(nil), waypoints...),
		speed:     speed,
		loop:      loop,
	}, nil
}

// Done reports whether a non-looping mover has reached its final
// waypoint.
func (mv *Mover) Done() bool {
	return !mv.loop && mv.next >= len(mv.waypoints)
}

// Step advances the entity by dt. It reports whether the entity's
// containing zone changed during this step (the trigger for handover
// logic).
func (mv *Mover) Step(dt time.Duration) bool {
	if mv.Done() {
		return false
	}
	beforeZone, hadBefore := mv.spaces.ZoneOf(mv.entity)
	budget := mv.speed * dt.Seconds()
	pl, _ := mv.spaces.PlacementOf(mv.entity)
	pos := pl.Position
	for budget > 0 && mv.next < len(mv.waypoints) {
		target := mv.waypoints[mv.next]
		dist := pos.Distance(target)
		if dist <= budget {
			pos = target
			budget -= dist
			mv.next++
			if mv.next >= len(mv.waypoints) && mv.loop {
				mv.next = 0
			}
			continue
		}
		// Move part-way toward the target.
		frac := budget / dist
		pos = Point{
			X: pos.X + (target.X-pos.X)*frac,
			Y: pos.Y + (target.Y-pos.Y)*frac,
		}
		budget = 0
	}
	_ = mv.spaces.Move(mv.entity, pos)
	afterZone, hasAfter := mv.spaces.ZoneOf(mv.entity)
	switch {
	case hadBefore != hasAfter:
		return true
	case hadBefore && beforeZone.ID != afterZone.ID:
		return true
	default:
		return false
	}
}
