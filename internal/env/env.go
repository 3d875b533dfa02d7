// Package env simulates the physical environment an IoT deployment is
// embedded in. The paper treats the environment as a first-class source
// of change (§II, §VII): design-time assumptions about it may not hold at
// runtime, and the *rate* of environmental change stresses a system's
// self-adaptation machinery. This package models named environment
// variables per zone that evolve under configurable stochastic processes
// (drift, noise, shocks) and can be influenced by actuators, closing the
// sense→analyze→plan→actuate loop of Figure 5.
package env

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/space"
)

// Variable names an environmental quantity, e.g. "temperature" or
// "occupancy".
type Variable string

// Common variables used by the scenarios.
const (
	Temperature Variable = "temperature"
	Humidity    Variable = "humidity"
	Occupancy   Variable = "occupancy"
)

// Process defines how a variable evolves per simulation tick. The update
// is: value += Drift*dt + Noise*N(0,1)*sqrt(dt) + shock, where dt is in
// seconds and a shock of magnitude ShockMag occurs with probability
// ShockProb per tick. Values are clamped to [Min, Max].
type Process struct {
	Initial   float64
	Drift     float64 // units per second
	Noise     float64 // stddev of Brownian term per sqrt(second)
	ShockProb float64 // probability of a shock per tick
	ShockMag  float64 // magnitude of a shock (sign randomized)
	Min, Max  float64
}

// cell is the state of one variable in one zone.
type cell struct {
	proc  Process
	value float64
}

// key identifies a (zone, variable) pair.
type key struct {
	zone space.ZoneID
	v    Variable
}

// Environment holds the current value of every (zone, variable) pair and
// advances them under their processes. It is driven by an external
// stepper (the scenario runner) via Step, so it shares the simulation's
// virtual clock implicitly.
type Environment struct {
	rng   *rand.Rand
	cells map[key]*cell
	order []key // deterministic iteration
}

// New constructs an environment with its own deterministic random
// stream (separate from the network's so traffic and weather don't
// perturb each other's sequences).
func New(seed int64) *Environment {
	return &Environment{
		rng:   rand.New(rand.NewSource(seed)),
		cells: make(map[key]*cell),
	}
}

// Define installs a variable in a zone with the given process. Defining
// the same pair again replaces the process and resets the value.
func (e *Environment) Define(zone space.ZoneID, v Variable, p Process) {
	k := key{zone, v}
	if _, dup := e.cells[k]; !dup {
		e.order = append(e.order, k)
	}
	e.cells[k] = &cell{proc: p, value: clamp(p.Initial, p.Min, p.Max)}
}

// Value returns the current value of a variable in a zone.
func (e *Environment) Value(zone space.ZoneID, v Variable) (float64, bool) {
	c, ok := e.cells[key{zone, v}]
	if !ok {
		return 0, false
	}
	return c.value, true
}

// Add applies a delta to a variable, used by actuators: a running HVAC
// unit adds a negative temperature delta each tick.
func (e *Environment) Add(zone space.ZoneID, v Variable, delta float64) error {
	c, ok := e.cells[key{zone, v}]
	if !ok {
		return fmt.Errorf("env: undefined variable %s in zone %s", v, zone)
	}
	c.value = clamp(c.value+delta, c.proc.Min, c.proc.Max)
	return nil
}

// Step advances every variable by dt under its process.
func (e *Environment) Step(dt time.Duration) {
	sec := dt.Seconds()
	sq := 0.0
	if sec > 0 {
		sq = math.Sqrt(sec)
	}
	for _, k := range e.order {
		c := e.cells[k]
		v := c.value + c.proc.Drift*sec + c.proc.Noise*e.rng.NormFloat64()*sq
		if c.proc.ShockProb > 0 && e.rng.Float64() < c.proc.ShockProb {
			mag := c.proc.ShockMag
			if e.rng.Intn(2) == 0 {
				mag = -mag
			}
			v += mag
		}
		c.value = clamp(v, c.proc.Min, c.proc.Max)
	}
}

func clamp(v, lo, hi float64) float64 {
	if lo == 0 && hi == 0 { // unbounded process
		return v
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
