// Package live holds one symbol for each clause of the test-only rule.
package live

// Cluster stands for a live world. Nothing calls NodeUp directly: it
// implements core's world interface, promoted through core.liveWorld.
type Cluster struct{ up bool }

// NodeUp reports whether id is up.
func (c *Cluster) NodeUp(id string) bool { return c.up && id != "" }

// Shared is test infrastructure: another package's tests call it.
func Shared() *Cluster { return &Cluster{up: true} }

// Kept is used only by its own tests, and the keep list names it.
func Kept() int { return 1 }

// OwnTestsOnly is used only by its own tests: the one offender.
func OwnTestsOnly() int { return 2 }

// KeptCalled is on the keep list, but core calls it now.
func KeptCalled() int { return 3 }
