package model

import (
	"testing"

	"repro/internal/verify"
)

// demoConfig: sensing on two sensor hosts (redundant), control on the
// gateway requiring sensing, storage on the cloud.
func demoConfig() *Configuration {
	cfg := NewConfiguration()
	cfg.Add(Component{ID: "sense-a", Host: "s1", Provides: []Service{"sensing"}})
	cfg.Add(Component{ID: "sense-b", Host: "s2", Provides: []Service{"sensing"}})
	cfg.Add(Component{ID: "control", Host: "gw", Provides: []Service{"control"}, Requires: []Service{"sensing"}})
	cfg.Add(Component{ID: "store", Host: "cloud", Provides: []Service{"storage"}, Requires: []Service{"control"}})
	return cfg
}

func allUp(string) bool { return true }

func TestServiceAvailability(t *testing.T) {
	cfg := demoConfig()
	if !cfg.ServiceAvailable("sensing", allUp) {
		t.Fatal("sensing should be available")
	}
	oneSensorDown := func(h string) bool { return h != "s1" }
	if !cfg.ServiceAvailable("sensing", oneSensorDown) {
		t.Fatal("redundant sensing should survive one sensor")
	}
	bothDown := func(h string) bool { return h != "s1" && h != "s2" }
	if cfg.ServiceAvailable("sensing", bothDown) {
		t.Fatal("sensing should fail with both sensors down")
	}
	if cfg.ServiceAvailable("ghost", allUp) {
		t.Fatal("unknown service available")
	}
}

func TestComponentOperational(t *testing.T) {
	cfg := demoConfig()
	if !cfg.ComponentOperational("control", allUp) {
		t.Fatal("control should be operational")
	}
	gwDown := func(h string) bool { return h != "gw" }
	if cfg.ComponentOperational("control", gwDown) {
		t.Fatal("control operational with its host down")
	}
	// control's requirement fails when both sensors are down.
	bothDown := func(h string) bool { return h != "s1" && h != "s2" }
	if cfg.ComponentOperational("control", bothDown) {
		t.Fatal("control operational without sensing")
	}
	if cfg.ComponentOperational("ghost", allUp) {
		t.Fatal("unknown component operational")
	}
}

func TestSnapshotProps(t *testing.T) {
	cfg := demoConfig()
	snap := cfg.Snapshot(allUp)
	for _, p := range []verify.Prop{"svc:sensing", "svc:control", "svc:storage", "comp:control", "comp:store"} {
		if !snap[p] {
			t.Fatalf("prop %s missing from snapshot %v", p, snap)
		}
	}
	s1Down := func(h string) bool { return h != "cloud" }
	snap2 := cfg.Snapshot(s1Down)
	if snap2["svc:storage"] {
		t.Fatal("storage available with cloud down")
	}
	if !snap2["svc:control"] {
		t.Fatal("control should survive cloud outage")
	}
}

func TestAddReplaces(t *testing.T) {
	cfg := NewConfiguration()
	cfg.Add(Component{ID: "c", Host: "h1", Provides: []Service{"x"}})
	cfg.Add(Component{ID: "c", Host: "h2", Provides: []Service{"x"}}) // migration
	if hosts := cfg.Hosts(); len(hosts) != 1 || hosts[0] != "h2" {
		t.Fatalf("hosts = %v, want [h2] after replace", hosts)
	}
}

func TestComponentCopySemantics(t *testing.T) {
	cfg := NewConfiguration()
	provides := []Service{"x"}
	cfg.Add(Component{ID: "c", Host: "h", Provides: provides})
	provides[0] = "mutated"
	if !cfg.ServiceAvailable("x", allUp) {
		t.Fatal("mutating caller slice changed configuration")
	}
}

func TestHostsSorted(t *testing.T) {
	cfg := demoConfig()
	hosts := cfg.Hosts()
	want := []string{"cloud", "gw", "s1", "s2"}
	if len(hosts) != len(want) {
		t.Fatalf("hosts = %v", hosts)
	}
	for i := range want {
		if hosts[i] != want[i] {
			t.Fatalf("hosts = %v, want %v", hosts, want)
		}
	}
}

func TestFailureKripkeVerifiesRedundancy(t *testing.T) {
	cfg := demoConfig()
	// Under at most one concurrent failure, sensing is always
	// available (two redundant providers).
	k, err := FailureKripke(cfg, FailureModelOptions{MaxConcurrentFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	// States: C(4,0)+C(4,1) = 5.
	if k.NumStates() != 5 {
		t.Fatalf("states = %d, want 5", k.NumStates())
	}
	if !verify.Check(k, verify.AG(verify.AP(ServiceProp("sensing")))) {
		t.Fatal("AG sensing should hold under single failures")
	}
	// control is NOT always available (its only host may be the one
	// failure).
	if verify.Check(k, verify.AG(verify.AP(ServiceProp("control")))) {
		t.Fatal("AG control should fail — gateway is a single point of failure")
	}
	// But recovery is always possible.
	if !verify.Check(k, verify.AG(verify.EF(verify.AP("all-up")))) {
		t.Fatal("AG EF all-up should hold")
	}
}

func TestFailureKripkeTwoFailuresBreakSensing(t *testing.T) {
	cfg := demoConfig()
	k, err := FailureKripke(cfg, FailureModelOptions{MaxConcurrentFailures: 2})
	if err != nil {
		t.Fatal(err)
	}
	// C(4,0)+C(4,1)+C(4,2) = 1+4+6 = 11.
	if k.NumStates() != 11 {
		t.Fatalf("states = %d, want 11", k.NumStates())
	}
	if verify.Check(k, verify.AG(verify.AP(ServiceProp("sensing")))) {
		t.Fatal("AG sensing must fail when both sensors can be down")
	}
}

func TestFailureKripkeUnboundedFailures(t *testing.T) {
	cfg := demoConfig()
	k, err := FailureKripke(cfg, FailureModelOptions{MaxConcurrentFailures: -1})
	if err != nil {
		t.Fatal(err)
	}
	if k.NumStates() != 16 {
		t.Fatalf("states = %d, want 16", k.NumStates())
	}
}

func TestFailureKripkeTooManyHosts(t *testing.T) {
	cfg := NewConfiguration()
	for i := 0; i < 21; i++ {
		cfg.Add(Component{ID: ComponentID(rune('a' + i)), Host: string(rune('a' + i))})
	}
	if _, err := FailureKripke(cfg, FailureModelOptions{}); err == nil {
		t.Fatal("21 hosts accepted")
	}
}

func TestPropHelpers(t *testing.T) {
	if ServiceProp("x") != "svc:x" || ComponentProp("c") != "comp:c" {
		t.Fatal("prop helpers wrong")
	}
}
