package mape

import (
	"time"

	"repro/internal/simnet"
)

// IslandGuard decides when a MAPE loop should fall back to island-mode
// degraded operation (DESIGN.md §9). The paper's roadmap (§V) calls
// for graceful degradation at the edge: when a node loses contact with
// the coordination quorum — a partition, not a flap — its loop must
// keep the local sensing→analysis→actuation chain alive from cached
// knowledge rather than freeze waiting for consensus.
//
// The guard is a pure grace-window state machine over externally
// observed quorum-contact times (consensus.Node.QuorumContact): it
// enters island mode only once contact has been stale for the full
// grace window, so an election flap — lose and regain quorum inside
// the window — never trips it; it leaves island mode the moment fresh
// contact is observed. Both transitions are deterministic functions of
// the observation stream, which keeps journals bit-identical across
// worker counts.
type IslandGuard struct {
	grace  time.Duration
	island bool
}

// NewIslandGuard returns a guard with the given grace window.
func NewIslandGuard(grace time.Duration) *IslandGuard {
	return &IslandGuard{grace: grace}
}

// Island reports whether the loop is currently in island mode.
func (g *IslandGuard) Island() bool { return g.island }

// Observe feeds one (now, lastQuorumContact) sample and reports
// whether the island state changed on this observation.
func (g *IslandGuard) Observe(now, quorumContact time.Duration) (changed bool) {
	isolated := now-quorumContact >= g.grace
	if isolated == g.island {
		return false
	}
	g.island = isolated
	return true
}

// Failover returns the first candidate the alive predicate accepts, in
// candidate-priority order. It is the selection rule for backup
// actuators: deterministic, no state, so every node looking at the same
// membership view picks the same survivor.
// ok is false when no candidate is alive.
func Failover(candidates []simnet.NodeID, alive func(simnet.NodeID) bool) (id simnet.NodeID, ok bool) {
	for _, c := range candidates {
		if alive(c) {
			return c, true
		}
	}
	return "", false
}
