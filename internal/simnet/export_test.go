package simnet

import "time"

// Lookahead returns the conservative window width currently in effect
// (the minimum cross-lane link latency), 0 without shard lanes.
func (s *Sim) Lookahead() time.Duration {
	sh := &s.shd
	if sh.n == 0 {
		return 0
	}
	if sh.laDirty {
		sh.la = s.computeLookahead()
		sh.laDirty = false
	}
	return sh.la
}
