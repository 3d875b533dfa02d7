package device

import (
	"testing"
	"time"

	"repro/internal/env"
)

func TestClassString(t *testing.T) {
	if got := ClassGateway.String(); got != "gateway" {
		t.Fatalf("String = %q", got)
	}
	if got := Class(99).String(); got != "class(99)" {
		t.Fatalf("String = %q", got)
	}
}

func TestIsEdge(t *testing.T) {
	tests := []struct {
		c    Class
		want bool
	}{
		{ClassSensorNode, false},
		{ClassMicrocontroller, false},
		{ClassMobile, true},
		{ClassGateway, true},
		{ClassCloudlet, true},
		{ClassCloudVM, false},
	}
	for _, tt := range tests {
		if got := tt.c.IsEdge(); got != tt.want {
			t.Errorf("%v.IsEdge() = %v, want %v", tt.c, got, tt.want)
		}
	}
}

func TestCapabilityMatches(t *testing.T) {
	tests := []struct {
		cap   Capability
		query Capability
		want  bool
	}{
		{"sense:temperature", "sense:temperature", true},
		{"sense:temperature", "sense:*", true},
		{"actuate:hvac", "sense:*", false},
		{"compute", "compute", true},
		{"compute", "comp", false},
		{"sense:temperature", "sense:humidity", false},
	}
	for _, tt := range tests {
		if got := tt.cap.Matches(tt.query); got != tt.want {
			t.Errorf("%q.Matches(%q) = %v, want %v", tt.cap, tt.query, got, tt.want)
		}
	}
}

func TestNewAppliesClassProfile(t *testing.T) {
	d := New("gw1", Config{Class: ClassGateway})
	if !d.Resources().Mains {
		t.Fatal("gateway should be mains powered")
	}
	if !d.Has(CapCompute) || !d.Has(CapStore) || !d.Has(CapControl) {
		t.Fatal("edge-class device should gain compute/store/control capabilities")
	}
	s := New("s1", Config{Class: ClassSensorNode, Capabilities: []Capability{SenseCap(env.Temperature)}})
	if s.Has(CapCompute) {
		t.Fatal("sensor node should not gain compute capability")
	}
	if !s.Has("sense:*") {
		t.Fatal("sensor node lacks its sensing capability")
	}
}

func TestConfigOverridesResources(t *testing.T) {
	d := New("x", Config{Class: ClassMobile, Resources: &Resources{CPUMIPS: 1, BatterymAh: 10}})
	if d.Resources().CPUMIPS != 1 {
		t.Fatalf("CPUMIPS = %d, want override 1", d.Resources().CPUMIPS)
	}
	if d.battery != 10 {
		t.Fatalf("fresh battery = %v mAh, want the override's 10", d.battery)
	}
}

func TestBatteryDrain(t *testing.T) {
	// A sensor node idles at 0.002 mAh/s.
	d := New("s", Config{Class: ClassSensorNode, Resources: &Resources{BatterymAh: 0.01}})
	if d.Idle(2500 * time.Millisecond) {
		t.Fatal("device drained too early")
	}
	if d.battery != 0.005 {
		t.Fatalf("battery = %v mAh, want 0.005", d.battery)
	}
	if !d.Idle(10 * time.Second) {
		t.Fatal("device did not report draining")
	}
	if !d.Drained() || d.battery != 0 {
		t.Fatal("drained state inconsistent")
	}
	if d.Idle(time.Second) {
		t.Fatal("already-drained device reported draining again")
	}
}

func TestMainsNeverDrains(t *testing.T) {
	d := New("gw", Config{Class: ClassGateway})
	if d.Idle(1000 * time.Hour) {
		t.Fatal("mains device drained")
	}
	if d.Drained() {
		t.Fatal("mains device reports drained")
	}
}

func TestSpendSampleDrains(t *testing.T) {
	// A sensor node spends 0.0005 mAh per sample.
	d := New("s", Config{Class: ClassSensorNode, Resources: &Resources{BatterymAh: 0.001}})
	d.SpendSample() // 0.0005 left
	if d.Drained() {
		t.Fatal("drained too early")
	}
	if !d.SpendSample() { // 0 left
		t.Fatal("final sample did not drain")
	}
}

func TestUpgradeStack(t *testing.T) {
	d := New("m", Config{Class: ClassMobile})
	d.UpgradeStack()
	d.UpgradeStack()
	if d.Stack().Version != 2 {
		t.Fatalf("version = %d, want 2", d.Stack().Version)
	}
}

func newEnvWithTemp(t *testing.T, val float64) *env.Environment {
	t.Helper()
	e := env.New(1)
	e.Define("z", env.Temperature, env.Process{Initial: val, Min: -50, Max: 50})
	return e
}

func TestSensorSample(t *testing.T) {
	e := newEnvWithTemp(t, 22)
	d := New("s", Config{Class: ClassSensorNode})
	s := &Sensor{Device: d, Zone: "z", Variable: env.Temperature, NoiseStd: 0.5}
	got, ok := s.Sample(e, 2.0) // deviate +2σ
	if !ok || got != 23 {
		t.Fatalf("Sample = %v/%v, want 23", got, ok)
	}
}

func TestSensorSampleUndefinedVariable(t *testing.T) {
	e := newEnvWithTemp(t, 22)
	d := New("s", Config{Class: ClassSensorNode})
	s := &Sensor{Device: d, Zone: "z", Variable: env.Humidity}
	if _, ok := s.Sample(e, 0); ok {
		t.Fatal("sample of undefined variable succeeded")
	}
}

func TestSensorDrainedCannotSample(t *testing.T) {
	e := newEnvWithTemp(t, 22)
	// Less charge than the class's 0.0005 mAh per sample.
	d := New("s", Config{Class: ClassSensorNode, Resources: &Resources{BatterymAh: 0.0004}})
	s := &Sensor{Device: d, Zone: "z", Variable: env.Temperature}
	if _, ok := s.Sample(e, 0); !ok {
		t.Fatal("first sample should succeed (drains after)")
	}
	if _, ok := s.Sample(e, 0); ok {
		t.Fatal("drained sensor sampled")
	}
}

func TestActuatorAffectsEnvironment(t *testing.T) {
	e := newEnvWithTemp(t, 30)
	d := New("a", Config{Class: ClassActuatorNode, Resources: &Resources{Mains: true}})
	a := &Actuator{Device: d, Zone: "z", Variable: env.Temperature, Effect: -0.5}
	a.Apply(e, 10*time.Second) // disengaged: no effect
	if v, _ := e.Value("z", env.Temperature); v != 30 {
		t.Fatalf("disengaged actuator changed env to %v", v)
	}
	if !a.SetEngaged(true) {
		t.Fatal("SetEngaged failed")
	}
	a.Apply(e, 10*time.Second)
	if v, _ := e.Value("z", env.Temperature); v != 25 {
		t.Fatalf("after 10s of -0.5/s cooling, temp = %v, want 25", v)
	}
}

func TestDrainedActuatorDisengages(t *testing.T) {
	e := newEnvWithTemp(t, 30)
	// Less charge than one second of the class's 0.002 mAh/s idle draw.
	d := New("a", Config{Class: ClassActuatorNode, Resources: &Resources{BatterymAh: 0.001}})
	a := &Actuator{Device: d, Zone: "z", Variable: env.Temperature, Effect: -1}
	a.SetEngaged(true)
	d.Idle(time.Second) // drains
	a.Apply(e, 10*time.Second)
	if v, _ := e.Value("z", env.Temperature); v != 30 {
		t.Fatalf("drained actuator changed env to %v", v)
	}
	if a.Engaged() {
		t.Fatal("drained actuator still engaged")
	}
	if a.SetEngaged(true) {
		t.Fatal("drained actuator re-engaged")
	}
}
