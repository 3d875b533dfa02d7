package dataflow_test

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/simnet"
	"repro/internal/space"
)

// The policy engine decides every flow from the item's label and the
// endpoints' domains: GDPR-origin sensitive data may move within the
// jurisdiction but not out of it.
func ExampleEngine() {
	eu := space.Domain{ID: "hospital", Jurisdiction: space.JurisdictionGDPR, Trusted: true}
	eu2 := space.Domain{ID: "clinic", Jurisdiction: space.JurisdictionGDPR, Trusted: true}
	us := space.Domain{ID: "research", Jurisdiction: space.JurisdictionCCPA, Trusted: true}

	vitals := dataflow.Item{
		Key: "patient/hr",
		Label: dataflow.Label{
			Topic: "vitals", Sensitivity: dataflow.Sensitive,
			Origin: eu.ID, Jurisdiction: space.JurisdictionGDPR,
		},
	}
	engine := dataflow.DefaultPrivacyEngine()

	within := engine.Decide(dataflow.FlowContext{Item: vitals, From: eu, To: eu2})
	abroad := engine.Decide(dataflow.FlowContext{Item: vitals, From: eu, To: us})
	fmt.Println("hospital → clinic:  ", within.Allowed)
	fmt.Println("hospital → research:", abroad.Allowed, "("+abroad.Rule+")")

	// Output:
	// hospital → clinic:   true
	// hospital → research: false (sensitive-stays-in-jurisdiction)
}

// Privacy scopes on inter-IoT data flows (the paper's Figure 4). A
// patient's wearable produces sensitive vitals inside a GDPR ward,
// whose gateway is the edge of a privacy scope. Data synchronizes to
// the hospital's second ward (same jurisdiction, allowed), while a
// research cloud in another jurisdiction receives only the public
// stream: the governed data plane blocks the vitals at the source, and
// an observe-only auditor counts what an ungoverned plane would have
// leaked.
func Example_privacyScopes() {
	sim := simnet.New(simnet.WithSeed(7), simnet.WithDefaultLatency(2*time.Millisecond))

	world := space.NewMap()
	world.AddDomain(space.Domain{ID: "ward-a", Jurisdiction: space.JurisdictionGDPR, Trusted: true})
	world.AddDomain(space.Domain{ID: "ward-b", Jurisdiction: space.JurisdictionGDPR, Trusted: true})
	world.AddDomain(space.Domain{ID: "research-cloud", Jurisdiction: space.JurisdictionCCPA, Trusted: true})
	world.Place("gw-a", space.Point{X: 0, Y: 0}, "ward-a")
	world.Place("gw-b", space.Point{X: 80, Y: 0}, "ward-b")
	world.Place("cloud", space.Point{X: 900, Y: 900}, "research-cloud")

	gwA := sim.AddNode("gw-a")
	gwB := sim.AddNode("gw-b")
	cloud := sim.AddNode("cloud")
	sim.DegradeLink("gw-a", "cloud", 45*time.Millisecond, 0)
	sim.DegradeLink("gw-b", "cloud", 45*time.Millisecond, 0)

	// The ward gateways' stores enforce the default privacy scopes.
	scopes := dataflow.DefaultPrivacyEngine()
	storeA := dataflow.NewStore(gwA, world, dataflow.StoreConfig{
		Peers: []simnet.NodeID{"gw-b", "cloud"}, SyncInterval: time.Second, Engine: scopes,
	})
	storeB := dataflow.NewStore(gwB, world, dataflow.StoreConfig{SyncInterval: time.Second})
	cloudStore := dataflow.NewStore(cloud, world, dataflow.StoreConfig{SyncInterval: time.Second})
	storeA.Start()
	storeB.Start()
	cloudStore.Start()

	auditor := dataflow.ObservedEngine()
	wardA, _ := world.Domain("ward-a")
	research, _ := world.Domain("research-cloud")

	// Heart rate (sensitive) and room climate (public), every 2 seconds.
	beat := 0
	gwA.Every(2*time.Second, func() {
		beat++
		now := sim.Now()
		label := dataflow.Label{Origin: "ward-a", Jurisdiction: space.JurisdictionGDPR}
		hr := dataflow.Item{Key: "patient-17/heart-rate", Value: 60 + beat%25, Label: label, ProducedAt: now}
		hr.Label.Topic, hr.Label.Sensitivity = "vitals", dataflow.Sensitive
		climate := dataflow.Item{Key: "room-301/temperature", Value: 21.5, Label: label, ProducedAt: now}
		climate.Label.Topic, climate.Label.Sensitivity = "climate", dataflow.Public
		storeA.Put(hr)
		storeA.Put(climate)
		auditor.Admit(dataflow.FlowContext{Item: hr, From: wardA, To: research}, now)
	})

	sim.RunUntil(time.Minute)

	for _, s := range []struct {
		name  string
		store *dataflow.Store
	}{{"ward-a", storeA}, {"ward-b", storeB}, {"research", cloudStore}} {
		_, hr := s.store.Get("patient-17/heart-rate")
		_, climate := s.store.Get("room-301/temperature")
		fmt.Printf("%-8s heart-rate %-5v climate %v\n", s.name, hr, climate)
	}
	fmt.Printf("ward-a blocked: %d, ungoverned leaks: %d\n", scopes.ViolationCount(), auditor.ViolationCount())

	// Output:
	// ward-a   heart-rate true  climate true
	// ward-b   heart-rate true  climate true
	// research heart-rate false climate true
	// ward-a blocked: 30, ungoverned leaks: 30
}

// Items carry their provenance: each store they traverse appends a hop.
func ExampleItem_WithHop() {
	item := dataflow.Item{Key: "temp", Value: 21.0}
	item = item.WithHop(dataflow.Hop{Node: "sensor", At: 0, Action: "produced"})
	item = item.WithHop(dataflow.Hop{Node: "gateway", At: 2 * time.Second, Action: "received"})
	for _, h := range item.Lineage {
		fmt.Printf("%s@%v: %s\n", h.Action, h.At, h.Node)
	}

	// Output:
	// produced@0s: sensor
	// received@2s: gateway
}
