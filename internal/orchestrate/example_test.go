package orchestrate_test

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/orchestrate"
)

// Deviceless placement: functions declare capabilities and resources,
// never devices. When a host fails, deploying a function again moves it
// to a live host.
func ExampleOrchestrator() {
	down := map[device.ID]bool{}
	orch := orchestrate.New(nil, func(id device.ID) bool { return !down[id] })
	orch.RegisterHost(device.New("gw-a", device.Config{Class: device.ClassGateway}))
	orch.RegisterHost(device.New("gw-b", device.Config{Class: device.ClassGateway}))

	host, _ := orch.Deploy(orchestrate.Function{
		Name: "analytics", Requires: []device.Capability{device.CapCompute},
		CPUMIPS: 100, MemMB: 64,
	})
	fmt.Println("placed on:", host)

	down[host] = true
	moved, _ := orch.Deploy(orchestrate.Function{
		Name: "analytics", Requires: []device.Capability{device.CapCompute},
		CPUMIPS: 100, MemMB: 64,
	})
	fmt.Println("moved off", host, "to:", moved)

	// Output:
	// placed on: gw-a
	// moved off gw-a to: gw-b
}
