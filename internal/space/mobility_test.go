package space

import (
	"testing"
	"time"
)

func moverMap(t *testing.T) *Map {
	t.Helper()
	m := NewMap()
	m.AddDomain(Domain{ID: "d", Trusted: true})
	if err := m.AddZone(Zone{ID: "west", Max: Point{X: 100, Y: 100}, DomainID: "d"}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddZone(Zone{ID: "east", Min: Point{X: 101}, Max: Point{X: 200, Y: 100}, DomainID: "d"}); err != nil {
		t.Fatal(err)
	}
	m.Place("car", Point{X: 0, Y: 50}, "d")
	return m
}

// position returns where the map has the mover's entity.
func position(mv *Mover) Point {
	pl, _ := mv.spaces.PlacementOf(mv.entity)
	return pl.Position
}

func TestMoverConstructorErrors(t *testing.T) {
	m := moverMap(t)
	if _, err := NewMover(m, "ghost", 1, false, Point{}); err == nil {
		t.Fatal("unplaced entity accepted")
	}
	if _, err := NewMover(m, "car", 0, false, Point{}); err == nil {
		t.Fatal("zero speed accepted")
	}
	if _, err := NewMover(m, "car", 1, false); err == nil {
		t.Fatal("no waypoints accepted")
	}
}

func TestMoverMovesAtSpeed(t *testing.T) {
	m := moverMap(t)
	mv, err := NewMover(m, "car", 10, false, Point{X: 200, Y: 50})
	if err != nil {
		t.Fatal(err)
	}
	mv.Step(time.Second)
	if pos := position(mv); pos.X != 10 || pos.Y != 50 {
		t.Fatalf("position = %+v, want (10,50)", pos)
	}
}

func TestMoverZoneCrossing(t *testing.T) {
	m := moverMap(t)
	mv, err := NewMover(m, "car", 50, false, Point{X: 200, Y: 50})
	if err != nil {
		t.Fatal(err)
	}
	crossings := 0
	for i := 0; i < 10 && !mv.Done(); i++ {
		if mv.Step(time.Second) {
			crossings++
		}
	}
	if crossings != 1 {
		t.Fatalf("zone crossings = %d, want 1 (west→east)", crossings)
	}
	z, ok := m.ZoneOf("car")
	if !ok || z.ID != "east" {
		t.Fatalf("final zone = %v", z.ID)
	}
	if !mv.Done() {
		t.Fatal("mover not done after reaching final waypoint")
	}
	if mv.Step(time.Second) {
		t.Fatal("done mover reported a crossing")
	}
}

func TestMoverMultiWaypoint(t *testing.T) {
	m := moverMap(t)
	mv, err := NewMover(m, "car", 10, false, Point{X: 30, Y: 50}, Point{X: 30, Y: 90})
	if err != nil {
		t.Fatal(err)
	}
	// Total path: 30 + 40 = 70m at 10 m/s → 7s. One long step crosses the first waypoint and continues.
	mv.Step(4 * time.Second) // 40m: 30 to wp1, 10 up
	if pos := position(mv); pos.X != 30 || pos.Y != 60 {
		t.Fatalf("position = %+v, want (30,60)", pos)
	}
	mv.Step(10 * time.Second)
	if !mv.Done() {
		t.Fatal("not done")
	}
	if pos := position(mv); pos.Y != 90 {
		t.Fatalf("final position = %+v", pos)
	}
}

func TestMoverLoopPatrols(t *testing.T) {
	m := moverMap(t)
	mv, err := NewMover(m, "car", 100, true, Point{X: 50, Y: 50}, Point{X: 0, Y: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mv.Step(time.Second)
	}
	if mv.Done() {
		t.Fatal("looping mover reported done")
	}
	if pos := position(mv); pos.X > 50 {
		t.Fatalf("patrol left its segment: %+v", pos)
	}
}
