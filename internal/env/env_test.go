package env

import (
	"testing"
	"time"

	"repro/internal/space"
)

const zone = space.ZoneID("z1")

func TestDefineAndValue(t *testing.T) {
	e := New(1)
	e.Define(zone, Temperature, Process{Initial: 21, Min: -10, Max: 50})
	v, ok := e.Value(zone, Temperature)
	if !ok || v != 21 {
		t.Fatalf("Value = %v/%v, want 21", v, ok)
	}
	if _, ok := e.Value(zone, Humidity); ok {
		t.Fatal("undefined variable reported a value")
	}
}

func TestInitialClamped(t *testing.T) {
	e := New(1)
	e.Define(zone, Temperature, Process{Initial: 100, Min: 0, Max: 50})
	v, _ := e.Value(zone, Temperature)
	if v != 50 {
		t.Fatalf("initial = %v, want clamped to 50", v)
	}
}

func TestDriftIsLinear(t *testing.T) {
	e := New(1)
	e.Define(zone, Temperature, Process{Initial: 20, Drift: 0.5, Min: 0, Max: 100})
	for i := 0; i < 10; i++ {
		e.Step(time.Second)
	}
	v, _ := e.Value(zone, Temperature)
	if v != 25 {
		t.Fatalf("after 10s of 0.5/s drift, value = %v, want 25", v)
	}
}

func TestStepClampsToBounds(t *testing.T) {
	e := New(1)
	e.Define(zone, Occupancy, Process{Initial: 9, Drift: 10, Min: 0, Max: 10})
	e.Step(5 * time.Second)
	v, _ := e.Value(zone, Occupancy)
	if v != 10 {
		t.Fatalf("value = %v, want clamped to 10", v)
	}
}

func TestUnboundedProcessNotClamped(t *testing.T) {
	e := New(1)
	e.Define(zone, Temperature, Process{Initial: 0, Drift: -5})
	e.Step(10 * time.Second)
	v, _ := e.Value(zone, Temperature)
	if v != -50 {
		t.Fatalf("value = %v, want -50 (Min==Max==0 means unbounded)", v)
	}
}

func TestNoiseMovesValue(t *testing.T) {
	e := New(42)
	e.Define(zone, Humidity, Process{Initial: 50, Noise: 2, Min: 0, Max: 100})
	e.Step(time.Second)
	v, _ := e.Value(zone, Humidity)
	if v == 50 {
		t.Fatal("noise process did not move the value")
	}
}

func TestShocksOccurAtConfiguredRate(t *testing.T) {
	e := New(7)
	e.Define(zone, Occupancy, Process{Initial: 0, ShockProb: 0.5, ShockMag: 1})
	shocks := 0
	prev := 0.0
	const ticks = 1000
	for i := 0; i < ticks; i++ {
		e.Step(0) // dt=0 isolates the shock term
		v, _ := e.Value(zone, Occupancy)
		if v != prev {
			shocks++
		}
		prev = v
	}
	if shocks < 400 || shocks > 600 {
		t.Fatalf("shocks = %d of %d at p=0.5, want ≈500", shocks, ticks)
	}
}

func TestAddClamps(t *testing.T) {
	e := New(1)
	e.Define(zone, Temperature, Process{Initial: 35, Min: 0, Max: 40})
	if err := e.Add(zone, Temperature, -5); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Value(zone, Temperature); v != 30 {
		t.Fatalf("after Add, value = %v", v)
	}
	if err := e.Add(zone, Temperature, 100); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Value(zone, Temperature); v != 40 {
		t.Fatalf("Add did not clamp: %v", v)
	}
	if err := e.Add(zone, Humidity, 1); err == nil {
		t.Fatal("Add on undefined variable succeeded")
	}
}

func TestRedefineResetsValue(t *testing.T) {
	e := New(1)
	e.Define(zone, Temperature, Process{Initial: 20})
	if err := e.Add(zone, Temperature, 13); err != nil {
		t.Fatal(err)
	}
	e.Define(zone, Temperature, Process{Initial: 18})
	if v, _ := e.Value(zone, Temperature); v != 18 {
		t.Fatalf("redefine did not reset value: %v", v)
	}
	if n := len(e.order); n != 1 {
		t.Fatalf("redefine duplicated the cell: %d entries", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := New(5)
		e.Define(zone, Temperature, Process{Initial: 20, Noise: 1, ShockProb: 0.1, ShockMag: 3, Min: -50, Max: 50})
		var vals []float64
		for i := 0; i < 100; i++ {
			e.Step(time.Second)
			v, _ := e.Value(zone, Temperature)
			vals = append(vals, v)
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
