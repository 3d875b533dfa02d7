// Command fixture runs core once.
package main

import (
	"fixture/internal/core"
	"fixture/internal/live"
)

func main() { println(core.Run(&live.Cluster{}), live.Sum(live.Options{Set: 1})) }
