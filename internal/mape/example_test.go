package mape_test

import (
	"fmt"
	"time"

	"repro/internal/crdt"
	"repro/internal/mape"
	"repro/internal/model"
)

// A complete MAPE-K loop: Monitor feeds knowledge, Analyze evaluates a
// requirement, Plan emits a counteraction, Execute applies it — one
// Cycle call per control period.
func ExampleLoop() {
	var now time.Duration
	clock := func() time.Duration { return now }

	temperature := 30.0 // the "environment"
	cooling := false

	loop := mape.NewLoop(mape.NewKnowledge(crdt.ReplicaID("edge"), clock), clock)
	loop.AddMonitor(func(k *mape.Knowledge) { k.Put("temp", temperature) })
	loop.AddRule(mape.PropRule{Prop: "temp_ok", Eval: func(k *mape.Knowledge) bool {
		v, ok := k.GetFloat("temp")
		return ok && v <= 26
	}})
	loop.AddRequirement(&model.Requirement{ID: "R-comfort", Prop: "temp_ok"})
	loop.SetPlanner(func(_ *mape.Knowledge, issues []mape.Issue) []mape.Action {
		return []mape.Action{{Name: "engage-cooling"}}
	})
	loop.SetExecutor(func(_ *mape.Knowledge, a mape.Action) bool {
		cooling = true
		return true
	})

	loop.Cycle()
	fmt.Println("cooling engaged:", cooling)

	temperature = 24 // the action worked
	now = 10 * time.Second
	loop.Cycle()
	st := loop.Stats()
	fmt.Println("issues detected:", st.IssuesDetected, "recoveries:", st.Recoveries)

	// Output:
	// cooling engaged: true
	// issues detected: 1 recoveries: 1
}
