package chaos

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/simnet"
)

// mutateFrom is the candidate index from which the generator starts
// mutating earlier candidates instead of always sampling fresh ones.
const mutateFrom = 8

// Generator samples candidate disruption schedules for one scenario
// topology. Candidate derivation is a pure function of (search seed,
// index): no state is carried between calls, so a campaign's candidate
// set is identical at any worker count and any evaluation order.
type Generator struct {
	horizon time.Duration
	infra   []simnet.NodeID
	devices []simnet.NodeID
	all     []simnet.NodeID
	domains []string
	// minEvents floors the schedule-event count of every candidate
	// (repairs count: each is an event the system must ride through).
	// Zero keeps the historical 1–4 action sampling byte-identical.
	minEvents int
}

// NewGenerator derives a generator for the config's scenario topology.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	topo := core.TopologyOf(cfg.Scenario)
	horizon := cfg.Scenario.Duration
	if horizon == 0 {
		horizon = core.DefaultScenario().Duration
	}
	devices := append(append([]simnet.NodeID(nil), topo.Sensors...), topo.Actuators...)
	minEvents := cfg.MinEvents
	if minEvents < 0 {
		minEvents = 0
	}
	return &Generator{
		minEvents: minEvents,
		horizon:   horizon,
		infra:     topo.Infrastructure(),
		devices:   devices,
		all:       topo.All(),
		// Destination domains for transfer events: one the spatial
		// model knows (cloudprov) and one it does not.
		domains: []string{"cloudprov", "foreign"},
	}
}

// Candidate derives the i-th candidate of a search. Low indexes are
// fresh random schedules; from mutateFrom on, half the candidates are
// biased mutations of an earlier candidate — re-derived on the spot,
// keeping the function pure.
func (g *Generator) Candidate(seed int64, i int) *fault.Schedule {
	rng := rand.New(rand.NewSource(simnet.MixSeed(seed, uint64(i))))
	if i >= mutateFrom && rng.Float64() < 0.5 {
		base := g.Candidate(seed, rng.Intn(i))
		return g.mutate(base, rng)
	}
	return g.fresh(rng)
}

// fresh samples a schedule of 1–4 disruption actions, topped up to the
// multi-fault floor when one is configured.
func (g *Generator) fresh(rng *rand.Rand) *fault.Schedule {
	s := &fault.Schedule{}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		g.addAction(s, rng)
	}
	return g.topUp(s, rng)
}

// topUp appends fresh actions until the schedule holds at least
// minEvents events. Each action adds one or two events (fault, maybe
// repair), so the loop terminates; with minEvents zero it draws no
// randomness at all, keeping historical candidate streams untouched.
func (g *Generator) topUp(s *fault.Schedule, rng *rand.Rand) *fault.Schedule {
	for s.Len() < g.minEvents {
		g.addAction(s, rng)
	}
	return s
}

// addAction appends one randomly chosen disruption to s. The weights
// bias toward infrastructure loss and connectivity faults — the
// disruption classes the paper's archetypes differ on.
func (g *Generator) addAction(s *fault.Schedule, rng *rand.Rand) {
	t := g.at(rng)
	switch p := rng.Float64(); {
	case p < 0.35: // infrastructure crash
		s.Crash(t, pick(rng, g.infra), g.outage(rng, t))
	case p < 0.50: // device crash
		s.Crash(t, pick(rng, g.devices), g.outage(rng, t))
	case p < 0.70: // partition: sever a random proper subset of the infrastructure
		island := subset(rng, g.infra)
		s.Partition(t, g.outage(rng, t), island, remainder(g.all, island))
	case p < 0.85: // link degradation or cut
		a, b := pair(rng, g.all)
		if rng.Float64() < 0.4 {
			s.CutLink(t, g.outage(rng, t), a, b)
		} else {
			latency := 20*time.Millisecond + time.Duration(rng.Int63n(int64(480*time.Millisecond)))
			s.DegradeLink(t, g.outage(rng, t), a, b, latency, rng.Float64()*0.95)
		}
	default: // model-level disruption
		switch rng.Intn(3) {
		case 0:
			s.DrainBattery(t, pick(rng, g.devices))
		case 1:
			s.TransferDomain(t, pick(rng, g.all), g.domains[rng.Intn(len(g.domains))])
		default:
			s.UpgradeStack(t, pick(rng, g.all))
		}
	}
}

// mutate applies 1–3 biased mutations to a copy of base: jitter event
// timing, retarget, deepen outages by pushing repairs later or dropping
// them, duplicate events into new windows (nesting), drop events, or
// add a fresh action.
func (g *Generator) mutate(base *fault.Schedule, rng *rand.Rand) *fault.Schedule {
	events := base.Events()
	for n := 1 + rng.Intn(3); n > 0 && len(events) > 0; n-- {
		i := rng.Intn(len(events))
		switch op := rng.Float64(); {
		case op < 0.25: // jitter timing by up to ±10% of the horizon
			jitter := time.Duration(rng.Int63n(int64(g.horizon/5))) - g.horizon/10
			events[i].At = clampAt(events[i].At+jitter, g.horizon)
		case op < 0.45: // deepen an outage: push a repair later…
			if isRepair(events[i].Kind) {
				if rng.Float64() < 0.3 { // …or remove it outright
					events = append(events[:i], events[i+1:]...)
				} else {
					events[i].At = clampAt(events[i].At+time.Duration(rng.Int63n(int64(g.horizon/5))), g.horizon)
				}
			} else {
				events[i].At = clampAt(events[i].At-time.Duration(rng.Int63n(int64(g.horizon/10))), g.horizon)
			}
		case op < 0.60: // retarget a node-scoped event
			if events[i].Node != "" {
				events[i].Node = pick(rng, g.all)
			}
		case op < 0.75: // duplicate into a new window (nested/overlapping faults)
			dup := events[i]
			dup.At = g.at(rng)
			events = append(events, dup)
		case op < 0.90: // drop an event
			events = append(events[:i], events[i+1:]...)
		default:
			tmp := &fault.Schedule{}
			g.addAction(tmp, rng)
			events = append(events, tmp.Events()...)
		}
	}
	out := &fault.Schedule{}
	for _, ev := range events {
		out.Add(ev)
	}
	return g.topUp(out, rng)
}

// at samples an injection time in the first 85% of the run, leaving a
// tail in which recovery is possible (non-recovery should mean the
// system failed, not that the schedule ended the run mid-outage).
func (g *Generator) at(rng *rand.Rand) time.Duration {
	return time.Duration(rng.Int63n(int64(85 * g.horizon / 100)))
}

// outage samples a disruption duration for a fault injected at t:
// usually 5–30% of the run, sometimes (20%) unrepaired — zero, meaning
// no recovery event. A repair that would land past the horizon is
// equivalent to no repair, so it collapses to unrepaired too, keeping
// every scheduled event inside the run.
func (g *Generator) outage(rng *rand.Rand, t time.Duration) time.Duration {
	if rng.Float64() < 0.2 {
		return 0
	}
	d := g.horizon/20 + time.Duration(rng.Int63n(int64(g.horizon/4)))
	if t+d >= g.horizon {
		return 0
	}
	return d
}

// isRepair reports whether the kind ends a disruption window.
func isRepair(k fault.Kind) bool {
	return k == fault.KindRecover || k == fault.KindPartitionEnd || k == fault.KindLinkRestore
}

func clampAt(t, horizon time.Duration) time.Duration {
	if t < 0 {
		return 0
	}
	if t >= horizon {
		return horizon - 1
	}
	return t
}

func pick(rng *rand.Rand, from []simnet.NodeID) simnet.NodeID {
	return from[rng.Intn(len(from))]
}

// pair picks two distinct nodes.
func pair(rng *rand.Rand, from []simnet.NodeID) (simnet.NodeID, simnet.NodeID) {
	i := rng.Intn(len(from))
	j := rng.Intn(len(from) - 1)
	if j >= i {
		j++
	}
	return from[i], from[j]
}

// subset picks a random non-empty proper subset (as a new slice).
func subset(rng *rand.Rand, from []simnet.NodeID) []simnet.NodeID {
	if len(from) < 2 {
		return append([]simnet.NodeID(nil), from...)
	}
	n := 1 + rng.Intn(len(from)-1)
	idx := rng.Perm(len(from))[:n]
	out := make([]simnet.NodeID, 0, n)
	for _, i := range idx {
		out = append(out, from[i])
	}
	return out
}

// remainder returns all \ island.
func remainder(all, island []simnet.NodeID) []simnet.NodeID {
	in := make(map[simnet.NodeID]bool, len(island))
	for _, n := range island {
		in[n] = true
	}
	var out []simnet.NodeID
	for _, n := range all {
		if !in[n] {
			out = append(out, n)
		}
	}
	return out
}
