// Package core reaches live only through an interface.
package core

import "fixture/internal/live"

type world interface{ NodeUp(id string) bool }

// liveWorld satisfies world with the NodeUp it embeds.
type liveWorld struct{ *live.Cluster }

// Up reports whether id is up in w.
func Up(w world, id string) bool { return w.NodeUp(id) }

// Run checks node a on c.
func Run(c *live.Cluster) bool { return Up(liveWorld{c}, "a") && live.KeptCalled() > 0 }
