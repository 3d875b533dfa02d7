package crdt_test

import (
	"fmt"
	"time"

	"repro/internal/crdt"
)

// Two replicas of a last-writer-wins map diverge during a partition
// and converge after exchanging state — in either order.
func ExampleLWWMap() {
	edge := crdt.NewLWWMap("edge")
	cloud := crdt.NewLWWMap("cloud")

	edge.Set("zone1/temp", 21.5, 1*time.Second)
	cloud.Set("zone1/temp", 22.0, 2*time.Second) // newer

	edge.Apply(cloud.State())
	cloud.Apply(edge.State())

	v1, _ := edge.Get("zone1/temp")
	v2, _ := cloud.Get("zone1/temp")
	fmt.Println(v1, v2)

	// Output:
	// 22 22
}
