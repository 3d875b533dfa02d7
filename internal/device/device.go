// Package device models heterogeneous IoT devices: their class, compute
// and energy resources, software stacks and capabilities. The paper's
// landscape (§II, Fig 1) ranges "from microcontrollers to mobile phones
// and micro-clouds"; heterogeneity of device and software stacks is one
// of the resilience factors (§IV). This package gives each entity an
// explicit capability descriptor — the "formal representation and
// treatment of resource capabilities" the roadmap calls for — which the
// orchestrator uses for capability-aware placement, and a battery model
// whose exhaustion is a disruption source.
package device

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/env"
	"repro/internal/space"
)

// ID identifies a device. Device IDs double as simulation node IDs.
type ID string

// Class is the hardware class of a device.
type Class int

// Device classes, ordered roughly by capability.
const (
	ClassSensorNode Class = iota + 1
	ClassActuatorNode
	ClassMicrocontroller
	ClassMobile
	ClassGateway
	ClassCloudlet
	ClassCloudVM
)

var classNames = map[Class]string{
	ClassSensorNode:      "sensor-node",
	ClassActuatorNode:    "actuator-node",
	ClassMicrocontroller: "microcontroller",
	ClassMobile:          "mobile",
	ClassGateway:         "gateway",
	ClassCloudlet:        "cloudlet",
	ClassCloudVM:         "cloud-vm",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// IsEdge reports whether the class can host edge facilities (compute,
// control and data close to end-devices) in the sense of the paper.
func (c Class) IsEdge() bool {
	return c == ClassMobile || c == ClassGateway || c == ClassCloudlet
}

// Resources describes a device's computational and energy resources.
type Resources struct {
	CPUMIPS   int // abstract compute throughput
	MemMB     int
	StorageMB int
	// BatterymAh is the battery capacity; 0 with Mains=true means
	// unlimited wall power.
	BatterymAh float64
	Mains      bool
}

// Capability is a typed ability a device offers, e.g. "sense:temperature",
// "actuate:hvac", "compute", "store". The namespace prefix before ':'
// groups capabilities; Matches supports exact and prefix queries.
type Capability string

// SenseCap is the capability of sensing the given environment variable.
func SenseCap(v env.Variable) Capability { return Capability("sense:" + string(v)) }

// ActuateCap is the capability of driving the named actuator kind.
func ActuateCap(kind string) Capability { return Capability("actuate:" + kind) }

// Compute and storage capabilities offered by edge/cloud classes.
const (
	CapCompute Capability = "compute"
	CapStore   Capability = "store"
	CapControl Capability = "control" // can host MAPE analysis/planning
)

// Matches reports whether the capability satisfies a query. A query
// "sense:*" matches any sensing capability; otherwise matching is exact.
func (c Capability) Matches(query Capability) bool {
	if q := string(query); len(q) > 1 && q[len(q)-1] == '*' {
		prefix := q[:len(q)-1]
		return len(c) >= len(prefix) && string(c[:len(prefix)]) == prefix
	}
	return c == query
}

// SoftwareStack describes the software a device hosts. Vendor-driven
// updates (configuration change) are modeled by Version bumps.
type SoftwareStack struct {
	Version int
}

// Device is one IoT entity. Construct with New; the zero value has no
// class and is not usable.
type Device struct {
	id    ID
	class Class
	res   Resources
	stack SoftwareStack
	caps  []Capability

	battery   float64 // remaining mAh
	idleDraw  float64 // mAh per second while up
	perSample float64 // mAh per sensor sample
	drained   bool
}

// Config parameterizes New. The class profile decides the energy draw;
// a nil Resources takes the class's resources too.
type Config struct {
	Class        Class
	Resources    *Resources
	Capabilities []Capability
}

// profile returns the default resources and energy profile for a class,
// shaped after typical hardware (e.g. an MCU with coin cell vs a mains
// powered cloudlet).
func profile(c Class) (res Resources, idle, perSample float64) {
	switch c {
	case ClassSensorNode, ClassActuatorNode:
		return Resources{CPUMIPS: 16, MemMB: 1, StorageMB: 1, BatterymAh: 1000}, 0.002, 0.0005
	case ClassMicrocontroller:
		return Resources{CPUMIPS: 100, MemMB: 8, StorageMB: 16, BatterymAh: 2000}, 0.004, 0.0005
	case ClassMobile:
		return Resources{CPUMIPS: 4000, MemMB: 4096, StorageMB: 65536, BatterymAh: 4000}, 0.05, 0.001
	case ClassGateway:
		return Resources{CPUMIPS: 2000, MemMB: 1024, StorageMB: 32768, Mains: true}, 0, 0
	case ClassCloudlet:
		return Resources{CPUMIPS: 16000, MemMB: 16384, StorageMB: 1 << 20, Mains: true}, 0, 0
	case ClassCloudVM:
		return Resources{CPUMIPS: 64000, MemMB: 65536, StorageMB: 1 << 22, Mains: true}, 0, 0
	default:
		return Resources{}, 0, 0
	}
}

// New constructs a device of the given class at its class profile's
// energy draw.
func New(id ID, cfg Config) *Device {
	res, idle, perSample := profile(cfg.Class)
	if cfg.Resources != nil {
		res = *cfg.Resources
	}
	caps := make([]Capability, len(cfg.Capabilities))
	copy(caps, cfg.Capabilities)
	if cfg.Class.IsEdge() || cfg.Class == ClassCloudVM || cfg.Class == ClassCloudlet {
		caps = append(caps, CapCompute, CapStore, CapControl)
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i] < caps[j] })
	return &Device{
		id:        id,
		class:     cfg.Class,
		res:       res,
		caps:      caps,
		battery:   res.BatterymAh,
		idleDraw:  idle,
		perSample: perSample,
	}
}

// ID returns the device identifier.
func (d *Device) ID() ID { return d.id }

// Class returns the hardware class.
func (d *Device) Class() Class { return d.class }

// Resources returns the device's resource description.
func (d *Device) Resources() Resources { return d.res }

// Stack returns the device's software stack descriptor.
func (d *Device) Stack() SoftwareStack { return d.stack }

// UpgradeStack bumps the stack version — a vendor-driven software
// configuration change, one of the paper's disruption classes.
func (d *Device) UpgradeStack() {
	d.stack.Version++
}

// Has reports whether the device offers a capability matching the query
// (exact or "prefix:*" form).
func (d *Device) Has(query Capability) bool {
	for _, c := range d.caps {
		if c.Matches(query) {
			return true
		}
	}
	return false
}

// Drained reports whether the battery has been exhausted.
func (d *Device) Drained() bool { return d.drained }

// drawCharge subtracts charge and reports whether the device just
// drained.
func (d *Device) drawCharge(mAh float64) bool {
	if d.res.Mains || d.drained {
		return false
	}
	d.battery -= mAh
	if d.battery <= 0 {
		d.battery = 0
		d.drained = true
		return true
	}
	return false
}

// Idle accounts for dt of idle operation. It reports whether the device
// just exhausted its battery.
func (d *Device) Idle(dt time.Duration) bool {
	return d.drawCharge(d.idleDraw * dt.Seconds())
}

// SpendSample accounts for taking one sensor sample.
func (d *Device) SpendSample() bool { return d.drawCharge(d.perSample) }

// Sensor binds a device to an environment variable in a zone: Sample
// reads the ground truth plus sensor noise.
type Sensor struct {
	Device   *Device
	Zone     space.ZoneID
	Variable env.Variable
	// NoiseStd is the stddev of Gaussian measurement noise.
	NoiseStd float64
}

// Sample reads the environment. It returns false if the variable is
// undefined or the device's battery is exhausted. The normal deviate is
// supplied by the caller so sampling shares the simulation's
// deterministic random stream.
func (s *Sensor) Sample(e *env.Environment, normDeviate float64) (float64, bool) {
	if s.Device.Drained() {
		return 0, false
	}
	v, ok := e.Value(s.Zone, s.Variable)
	if !ok {
		return 0, false
	}
	s.Device.SpendSample()
	return v + s.NoiseStd*normDeviate, true
}

// Actuator binds a device to an environment variable it can influence.
// While engaged, each Apply adds Effect*dt to the variable (e.g. cooling
// at -0.5 degrees per second).
type Actuator struct {
	Device   *Device
	Zone     space.ZoneID
	Variable env.Variable
	Effect   float64 // units per second while engaged
	engaged  bool
}

// Engaged reports whether the actuator is currently on.
func (a *Actuator) Engaged() bool { return a.engaged }

// SetEngaged turns the actuator on or off. A drained device cannot
// engage.
func (a *Actuator) SetEngaged(on bool) bool {
	if on && a.Device.Drained() {
		return false
	}
	a.engaged = on
	return true
}

// Apply applies the actuator's effect for dt. Disengaged or drained
// actuators have no effect; a drained actuator also disengages.
func (a *Actuator) Apply(e *env.Environment, dt time.Duration) {
	if !a.engaged {
		return
	}
	if a.Device.Drained() {
		a.engaged = false
		return
	}
	_ = e.Add(a.Zone, a.Variable, a.Effect*dt.Seconds())
}
