package model

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/verify"
)

// Service names a software service interface.
type Service string

// ComponentID names a software component.
type ComponentID string

// Component is one software component of the configuration: it runs on
// a host, provides services and requires services from others. The
// paper's configuration view treats this graph as dynamic — components
// move, hosts fail, interfaces change — so everything here is keyed by
// ID and re-evaluated against the current liveness of hosts.
type Component struct {
	ID       ComponentID
	Host     string // hosting device/node ID
	Provides []Service
	Requires []Service
}

// Configuration is the software configuration graph.
type Configuration struct {
	comps map[ComponentID]*Component
	order []ComponentID
}

// NewConfiguration returns an empty configuration.
func NewConfiguration() *Configuration {
	return &Configuration{comps: make(map[ComponentID]*Component)}
}

// Add registers a component. Re-adding an ID replaces it (a software
// update or migration).
func (c *Configuration) Add(comp Component) {
	if _, dup := c.comps[comp.ID]; !dup {
		c.order = append(c.order, comp.ID)
	}
	cp := comp
	cp.Provides = append([]Service(nil), comp.Provides...)
	cp.Requires = append([]Service(nil), comp.Requires...)
	c.comps[comp.ID] = &cp
}

// Hosts returns the distinct hosts referenced, sorted.
func (c *Configuration) Hosts() []string {
	set := make(map[string]bool)
	for _, comp := range c.comps {
		set[comp.Host] = true
	}
	out := make([]string, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// ServiceAvailable reports whether some component providing svc runs on
// a live host.
func (c *Configuration) ServiceAvailable(svc Service, hostUp func(string) bool) bool {
	for _, comp := range c.comps {
		if !hostUp(comp.Host) {
			continue
		}
		for _, s := range comp.Provides {
			if s == svc {
				return true
			}
		}
	}
	return false
}

// ComponentOperational reports whether the component's host is up and
// all of its required services are available.
func (c *Configuration) ComponentOperational(id ComponentID, hostUp func(string) bool) bool {
	comp, ok := c.comps[id]
	if !ok || !hostUp(comp.Host) {
		return false
	}
	for _, req := range comp.Requires {
		if !c.ServiceAvailable(req, hostUp) {
			return false
		}
	}
	return true
}

// Services returns all provided service names, sorted.
func (c *Configuration) Services() []Service {
	set := make(map[Service]bool)
	for _, comp := range c.comps {
		for _, s := range comp.Provides {
			set[s] = true
		}
	}
	out := make([]Service, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// ServiceProp is the atomic proposition labeling states where svc is
// available.
func ServiceProp(svc Service) verify.Prop {
	return verify.Prop("svc:" + string(svc))
}

// ComponentProp is the proposition labeling states where the component
// is operational.
func ComponentProp(id ComponentID) verify.Prop {
	return verify.Prop("comp:" + string(id))
}

// Snapshot computes the currently true propositions (service
// availability and component operability) for the live configuration.
func (c *Configuration) Snapshot(hostUp func(string) bool) map[verify.Prop]bool {
	out := make(map[verify.Prop]bool)
	for _, svc := range c.Services() {
		if c.ServiceAvailable(svc, hostUp) {
			out[ServiceProp(svc)] = true
		}
	}
	for _, id := range c.order {
		if c.ComponentOperational(id, hostUp) {
			out[ComponentProp(id)] = true
		}
	}
	return out
}

// FailureModelOptions parameterizes the configuration→Kripke
// translation.
type FailureModelOptions struct {
	// MaxConcurrentFailures bounds how many hosts can be down at once
	// in the model (the failure assumption under which design-time
	// guarantees hold). Values < 0 mean "all hosts may fail".
	MaxConcurrentFailures int
}

// FailureKripke translates the configuration into a Kripke structure
// whose states are the host-failure patterns with at most
// MaxConcurrentFailures concurrent failures; transitions are single
// host failures and recoveries. States are labeled with service
// availability and component operability, so resilience properties —
// e.g. AG(svc:control) "control survives any admissible failure", or
// AG(EF all-up) "the system can always recover" — become CTL checks.
// The initial state is all-hosts-up.
func FailureKripke(cfg *Configuration, opts FailureModelOptions) (*verify.Kripke, error) {
	hosts := cfg.Hosts()
	n := len(hosts)
	if n > 20 {
		return nil, fmt.Errorf("model: %d hosts exceed the explicit-state limit of 20", n)
	}
	maxDown := opts.MaxConcurrentFailures
	if maxDown < 0 || maxDown > n {
		maxDown = n
	}
	k := verify.NewKripke()
	idx := make(map[uint32]int) // bitmask of down hosts → state
	var masks []uint32
	for mask := uint32(0); mask < 1<<n; mask++ {
		if bits.OnesCount32(mask) > maxDown {
			continue
		}
		down := make(map[string]bool, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				down[hosts[i]] = true
			}
		}
		hostUp := func(h string) bool { return !down[h] }
		var props []verify.Prop
		for p := range cfg.Snapshot(hostUp) {
			props = append(props, p)
		}
		if mask == 0 {
			props = append(props, "all-up")
		}
		idx[mask] = k.AddState(props...)
		masks = append(masks, mask)
	}
	for _, mask := range masks {
		s := idx[mask]
		// Self-loop: time can pass without a failure event.
		if err := k.AddTransition(s, s); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			flipped := mask ^ (1 << i)
			if t, ok := idx[flipped]; ok {
				if err := k.AddTransition(s, t); err != nil {
					return nil, err
				}
			}
		}
	}
	k.SetInitial(idx[0])
	return k, nil
}
