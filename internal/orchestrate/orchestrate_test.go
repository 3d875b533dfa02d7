package orchestrate

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/space"
)

// pool: one gateway (edge), one cloudlet (edge, bigger), one cloud VM.
func pool(t *testing.T, alive func(device.ID) bool) *Orchestrator {
	t.Helper()
	m := space.NewMap()
	m.AddDomain(space.Domain{ID: "d", Trusted: true})
	if err := m.AddZone(space.Zone{ID: "z1", Max: space.Point{X: 10, Y: 10}, DomainID: "d"}); err != nil {
		t.Fatal(err)
	}
	m.Place("gw", space.Point{X: 5, Y: 5}, "d")
	m.Place("cl", space.Point{X: 50, Y: 50}, "d")
	m.Place("cloud", space.Point{X: 100, Y: 100}, "d")

	o := New(m, alive)
	o.RegisterHost(device.New("gw", device.Config{Class: device.ClassGateway}))
	o.RegisterHost(device.New("cl", device.Config{Class: device.ClassCloudlet}))
	o.RegisterHost(device.New("cloud", device.Config{Class: device.ClassCloudVM}))
	return o
}

func alwaysAlive(device.ID) bool { return true }

// operational reports whether the function is placed on a live,
// undrained host.
func operational(o *Orchestrator, name string) bool {
	p, ok := o.placements[name]
	if !ok {
		return false
	}
	d := o.hosts[p.Host]
	return o.alive(p.Host) && d != nil && !d.Drained()
}

// deployReplicas places n replicas of fn, "<name>#0" … "<name>#<n-1>",
// each avoiding the hosts of the ones before it.
func deployReplicas(t *testing.T, o *Orchestrator, fn Function, n int) []device.ID {
	t.Helper()
	avoid := map[device.ID]bool{}
	var hosts []device.ID
	for i := 0; i < n; i++ {
		rep := fn
		rep.Name = fmt.Sprintf("%s#%d", fn.Name, i)
		host, err := o.DeployAvoiding(rep, avoid)
		if err != nil {
			t.Fatal(err)
		}
		avoid[host] = true
		hosts = append(hosts, host)
	}
	return hosts
}

func TestDeployPrefersEdge(t *testing.T) {
	o := pool(t, alwaysAlive)
	host, err := o.Deploy(Function{Name: "analytics", Requires: []device.Capability{device.CapCompute},
		CPUMIPS: 100, MemMB: 64, PreferEdge: true})
	if err != nil {
		t.Fatal(err)
	}
	if host == "cloud" {
		t.Fatalf("placed on cloud despite PreferEdge: %s", host)
	}
	if !operational(o, "analytics") {
		t.Fatal("not operational after deploy")
	}
}

func TestDeployWithoutPreferenceUsesLeastLoaded(t *testing.T) {
	o := pool(t, alwaysAlive)
	// Saturate relative load on the cloudlet and gateway by deploying
	// large functions, then check the next goes to the emptiest host.
	if _, err := o.Deploy(Function{Name: "f1", CPUMIPS: 1800, MemMB: 1}); err != nil {
		t.Fatal(err) // lands somewhere
	}
	host2, err := o.Deploy(Function{Name: "f2", CPUMIPS: 100, MemMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	h1 := o.placements["f1"].Host
	if host2 == h1 {
		t.Fatalf("both functions on %s; expected spreading", h1)
	}
}

func TestCapabilityConstraints(t *testing.T) {
	o := pool(t, alwaysAlive)
	// No host senses temperature.
	if _, err := o.Deploy(Function{Name: "sense", Requires: []device.Capability{device.SenseCap(env.Temperature)}}); err == nil {
		t.Fatal("deploy with unsatisfiable capability succeeded")
	}
	// Register a sensor host: still fails (sensor nodes don't get
	// CapCompute, but the function only asks for sensing — so it works).
	o.RegisterHost(device.New("s1", device.Config{
		Class:        device.ClassSensorNode,
		Capabilities: []device.Capability{device.SenseCap(env.Temperature)},
	}))
	host, err := o.Deploy(Function{Name: "sense", Requires: []device.Capability{device.SenseCap(env.Temperature)}})
	if err != nil || host != "s1" {
		t.Fatalf("host = %v, err = %v", host, err)
	}
}

func TestCapacityAccounting(t *testing.T) {
	o := New(nil, alwaysAlive)
	o.RegisterHost(device.New("gw", device.Config{Class: device.ClassGateway})) // 2000 MIPS, 1024 MB
	if _, err := o.Deploy(Function{Name: "a", CPUMIPS: 1500, MemMB: 512}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Deploy(Function{Name: "b", CPUMIPS: 600, MemMB: 128}); err == nil {
		t.Fatal("over-CPU deploy succeeded")
	}
	if _, err := o.Deploy(Function{Name: "c", CPUMIPS: 100, MemMB: 600}); err == nil {
		t.Fatal("over-memory deploy succeeded")
	}
	if _, err := o.Deploy(Function{Name: "d", CPUMIPS: 100, MemMB: 100}); err != nil {
		t.Fatal("fitting deploy failed:", err)
	}
	// Redeploying releases the old placement's capacity.
	if _, err := o.Deploy(Function{Name: "a", CPUMIPS: 1, MemMB: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Deploy(Function{Name: "e", CPUMIPS: 1500, MemMB: 500}); err != nil {
		t.Fatal("capacity not released:", err)
	}
}

func TestZoneConstraint(t *testing.T) {
	o := pool(t, alwaysAlive)
	host, err := o.Deploy(Function{Name: "local", Zone: "z1", CPUMIPS: 10, MemMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if host != "gw" {
		t.Fatalf("host = %s, want gw (only host in z1)", host)
	}
	// A zone nobody is in.
	if _, err := o.Deploy(Function{Name: "nowhere", Zone: "ghost"}); err == nil {
		t.Fatal("deploy into empty zone succeeded")
	}
}

func TestZoneConstraintWithoutSpaces(t *testing.T) {
	o := New(nil, alwaysAlive)
	o.RegisterHost(device.New("gw", device.Config{Class: device.ClassGateway}))
	if _, err := o.Deploy(Function{Name: "f", Zone: "z1"}); err == nil {
		t.Fatal("zone-constrained deploy without a space map succeeded")
	}
}

// TestRedeployMovesOffDeadHost: a heal is a replan deploying the
// function again, which releases the dead host and places it on a live
// one.
func TestRedeployMovesOffDeadHost(t *testing.T) {
	down := map[device.ID]bool{}
	o := pool(t, func(id device.ID) bool { return !down[id] })
	fn := Function{Name: "ctrl", CPUMIPS: 100, MemMB: 64, PreferEdge: true}
	host, err := o.Deploy(fn)
	if err != nil {
		t.Fatal(err)
	}
	down[host] = true
	if operational(o, "ctrl") {
		t.Fatal("operational on dead host")
	}
	moved, err := o.Deploy(fn)
	if err != nil {
		t.Fatal(err)
	}
	if moved == host || o.placements["ctrl"].Host != moved {
		t.Fatalf("redeployed on %s, dead host %s", moved, host)
	}
	if !operational(o, "ctrl") {
		t.Fatal("not operational after heal")
	}
	if o.usedCPU[host] != 0 || o.usedMem[host] != 0 {
		t.Fatalf("dead host still accounts cpu=%d mem=%d", o.usedCPU[host], o.usedMem[host])
	}
}

func TestHealFailsWhenNoHostFeasible(t *testing.T) {
	down := map[device.ID]bool{}
	o := New(nil, func(id device.ID) bool { return !down[id] })
	o.RegisterHost(device.New("only", device.Config{Class: device.ClassGateway}))
	fn := Function{Name: "f", CPUMIPS: 10, MemMB: 1}
	o.Deploy(fn)
	down["only"] = true
	if host, err := o.Deploy(fn); err == nil {
		t.Fatalf("redeployed on %s with no feasible host", host)
	}
	if operational(o, "f") {
		t.Fatal("function operational on a dead host")
	}
	// Recovery: the host comes back and the next replan places the
	// function on it again.
	down["only"] = false
	if host, err := o.Deploy(fn); err != nil || host != "only" {
		t.Fatalf("redeploy after recovery = %q, %v", host, err)
	}
	if !operational(o, "f") {
		t.Fatal("function not operational after host recovery")
	}
}

func TestDrainedHostInfeasible(t *testing.T) {
	o := New(nil, alwaysAlive)
	d := device.New("bat", device.Config{Class: device.ClassMobile,
		Resources: &device.Resources{CPUMIPS: 1000, MemMB: 1000, BatterymAh: 0.001}})
	o.RegisterHost(d)
	if _, err := o.Deploy(Function{Name: "f", CPUMIPS: 1, MemMB: 1}); err != nil {
		t.Fatal(err)
	}
	// A mobile idles at 0.05 mAh/s: one second drains it.
	if !d.Idle(time.Second) {
		t.Fatal("host did not drain")
	}
	if operational(o, "f") {
		t.Fatal("operational on drained host")
	}
}

func TestRedeployReleasesOldPlacement(t *testing.T) {
	o := New(nil, alwaysAlive)
	o.RegisterHost(device.New("gw", device.Config{Class: device.ClassGateway}))
	o.Deploy(Function{Name: "f", CPUMIPS: 1500, MemMB: 512})
	// Re-deploy same function with smaller demand must not double-count.
	if _, err := o.Deploy(Function{Name: "f", CPUMIPS: 1500, MemMB: 512}); err != nil {
		t.Fatal("redeploy failed:", err)
	}
	if got := len(o.placements); got != 1 {
		t.Fatalf("placements = %d", got)
	}
}

func TestReplicatedSurvivesSingleHostFailure(t *testing.T) {
	down := map[device.ID]bool{}
	o := pool(t, func(id device.ID) bool { return !down[id] })
	hosts := deployReplicas(t, o, Function{Name: "svc", CPUMIPS: 10, MemMB: 1}, 2)
	down[hosts[0]] = true
	if operational(o, "svc#0") || !operational(o, "svc#1") {
		t.Fatal("a single host failure should take out exactly the replica on it")
	}
	// Healing re-places the dead replica on the remaining distinct host.
	host, err := o.DeployAvoiding(Function{Name: "svc#0", CPUMIPS: 10, MemMB: 1}, map[device.ID]bool{hosts[1]: true})
	if err != nil {
		t.Fatal(err)
	}
	if host == hosts[0] || host == hosts[1] {
		t.Fatalf("dead replica re-placed on %s, hosts in use %v", host, hosts)
	}
}

func TestHealPreservesAntiAffinity(t *testing.T) {
	// 3 hosts, 3 replicas: when one host dies there is no distinct
	// host left, so re-placing its replica away from its siblings
	// must fail rather than stack two replicas on one host.
	down := map[device.ID]bool{}
	o := pool(t, func(id device.ID) bool { return !down[id] })
	fn := Function{Name: "svc", CPUMIPS: 10, MemMB: 1}
	hosts := deployReplicas(t, o, fn, 3)
	down[hosts[0]] = true
	siblings := map[device.ID]bool{hosts[1]: true, hosts[2]: true}
	fn.Name = "svc#0"
	if host, err := o.DeployAvoiding(fn, siblings); err == nil {
		t.Fatalf("re-placed on %s; stacking replicas violates anti-affinity", host)
	}
	// With a 4th host available the heal succeeds onto it.
	o.RegisterHost(device.New("extra", device.Config{Class: device.ClassGateway}))
	if host, err := o.DeployAvoiding(fn, siblings); err != nil || host != "extra" {
		t.Fatalf("re-placed on %q (%v), want the new host", host, err)
	}
	counts := map[device.ID]int{}
	for _, p := range o.placements {
		counts[p.Host]++
	}
	for h, n := range counts {
		if n > 1 {
			t.Fatalf("host %s runs %d replicas", h, n)
		}
	}
}

func TestDeployAvoidingSpreadsReplicas(t *testing.T) {
	o := pool(t, alwaysAlive)
	primary, err := o.Deploy(Function{Name: "ctl", CPUMIPS: 100, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	// A replica avoiding the primary's host must land elsewhere — the
	// partition-aware spreading rule.
	backup, err := o.DeployAvoiding(Function{Name: "ctl#b1", CPUMIPS: 100, MemMB: 64},
		map[device.ID]bool{primary: true})
	if err != nil {
		t.Fatal(err)
	}
	if backup == primary {
		t.Fatalf("replica landed on the avoided host %s", backup)
	}
	if !operational(o, "ctl#b1") {
		t.Fatal("replica not operational after DeployAvoiding")
	}
	// Redeploying the same replica releases the old placement first, so
	// repeated replans do not leak capacity.
	again, err := o.DeployAvoiding(Function{Name: "ctl#b1", CPUMIPS: 100, MemMB: 64},
		map[device.ID]bool{primary: true})
	if err != nil {
		t.Fatal(err)
	}
	if again == primary {
		t.Fatalf("redeployed replica landed on the avoided host %s", again)
	}
}

func TestDeployAvoidingAllHostsInfeasible(t *testing.T) {
	o := pool(t, alwaysAlive)
	avoid := map[device.ID]bool{"gw": true, "cl": true, "cloud": true}
	if _, err := o.DeployAvoiding(Function{Name: "f", CPUMIPS: 1, MemMB: 1}, avoid); err == nil {
		t.Fatal("DeployAvoiding succeeded with every host excluded")
	}
}
