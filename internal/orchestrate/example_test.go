package orchestrate_test

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/orchestrate"
)

// Deviceless placement: functions declare capabilities and resources,
// never devices. When a host fails, HealHost migrates its functions.
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
	fmt.Println("migrated off", host+":", orch.HealHost(host))

	// Output:
	// placed on: gw-a
	// migrated off gw-a: [analytics]
}
