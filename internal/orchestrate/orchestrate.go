// Package orchestrate implements the paper's "deviceless" paradigm
// (§III roadmap, pervasiveness/deviceless disruption vectors): business
// logic is expressed as functions with declared capability and resource
// demands, fully decoupled from concrete devices; the orchestrator
// places each function on a feasible host (capability-aware,
// capacity-aware, locality-aware), and re-places functions automatically
// when their host fails — the self-healing half of Table 2's
// "autonomous control, coordination and self-healing". The placement
// logic is a deterministic library; archetypes decide where it runs
// (cloud-only in ML2, per-edge-group behind Raft in ML4).
package orchestrate

import (
	"fmt"
	"slices"

	"repro/internal/device"
	"repro/internal/space"
)

// Function is a deployable unit of business logic.
type Function struct {
	Name string
	// Requires lists capabilities the host must offer (supports the
	// "prefix:*" query form).
	Requires []device.Capability
	// CPUMIPS and MemMB are the function's resource demands.
	CPUMIPS int
	MemMB   int
	// Zone, when set, constrains placement to hosts located in the
	// zone (data locality / privacy scope).
	Zone space.ZoneID
	// PreferEdge biases placement toward edge-class hosts even when a
	// cloud host has more headroom.
	PreferEdge bool
}

// Placement records where a function currently runs.
type Placement struct {
	Function Function
	Host     device.ID
}

// Orchestrator places functions on registered hosts. Construct with
// New; it is not safe for concurrent use (drive it from the simulation
// loop).
type Orchestrator struct {
	spaces *space.Map
	alive  func(device.ID) bool

	hosts     map[device.ID]*device.Device
	hostOrder []device.ID
	// byID is hostOrder sorted, the order placement scans in; read it
	// through hostsByID. Hosts are never removed, so it is stale exactly
	// when it is shorter than hostOrder, and the first pick after a
	// registration rebuilds it.
	byID []device.ID
	// inZone is byID split by zone: the hosts each zone contains, in id
	// order, the only candidates of a zone-constrained pick; read it
	// through hostsIn. It is built at the first zoned pick, dropped with
	// byID when a host registers, and rebuilt once the spatial map
	// reports a zone or placement change (space.Map.Changes moved off
	// zonesAt).
	inZone  map[space.ZoneID][]device.ID
	zonesAt uint64
	usedCPU map[device.ID]int
	usedMem map[device.ID]int

	placements map[string]Placement
}

// New creates an orchestrator. alive reports host liveness (wire it to
// the membership view or the simulator); spaces resolves zone
// constraints and may be nil if no function uses them.
func New(spaces *space.Map, alive func(device.ID) bool) *Orchestrator {
	if alive == nil {
		alive = func(device.ID) bool { return true }
	}
	return &Orchestrator{
		spaces:     spaces,
		alive:      alive,
		hosts:      make(map[device.ID]*device.Device),
		usedCPU:    make(map[device.ID]int),
		usedMem:    make(map[device.ID]int),
		placements: make(map[string]Placement),
	}
}

// RegisterHost adds a device to the placement pool.
func (o *Orchestrator) RegisterHost(d *device.Device) {
	if _, dup := o.hosts[d.ID()]; !dup {
		o.hostOrder = append(o.hostOrder, d.ID())
	}
	o.hosts[d.ID()] = d
}

// feasible reports whether host can run fn right now, zone aside: pick
// offers a zoned function only the hosts in its zone.
func (o *Orchestrator) feasible(fn Function, id device.ID) bool {
	d, ok := o.hosts[id]
	if !ok || !o.alive(id) || d.Drained() {
		return false
	}
	for _, cap := range fn.Requires {
		if !d.Has(cap) {
			return false
		}
	}
	res := d.Resources()
	return o.usedCPU[id]+fn.CPUMIPS <= res.CPUMIPS && o.usedMem[id]+fn.MemMB <= res.MemMB
}

// score ranks a feasible host: prefer edge hosts when asked, then the
// least relative CPU load, then stable order by ID.
func (o *Orchestrator) score(fn Function, id device.ID) float64 {
	d := o.hosts[id]
	res := d.Resources()
	load := 0.0
	if res.CPUMIPS > 0 {
		load = float64(o.usedCPU[id]) / float64(res.CPUMIPS)
	}
	s := -load // less load → higher score
	if fn.PreferEdge && d.Class().IsEdge() {
		s += 10
	}
	return s
}

// Deploy places fn on the best feasible host. Re-deploying an existing
// function first releases its old placement.
func (o *Orchestrator) Deploy(fn Function) (device.ID, error) {
	if old, ok := o.placements[fn.Name]; ok {
		o.release(old)
	}
	host, ok := o.pick(fn, nil)
	if !ok {
		return "", fmt.Errorf("orchestrate: no feasible host for function %q", fn.Name)
	}
	o.place(fn, host)
	return host, nil
}

// hostsByID returns the registered hosts in id order, re-sorting only
// after a registration.
func (o *Orchestrator) hostsByID() []device.ID {
	if len(o.byID) != len(o.hostOrder) {
		o.byID = append(o.byID[:0], o.hostOrder...)
		slices.Sort(o.byID)
		o.inZone = nil
	}
	return o.byID
}

// hostsIn returns the registered hosts the zone contains, in id order,
// rebuilding the per-zone lists only after a zone or placement change
// or a registration. A host belongs to the zone ZoneOf names for it.
func (o *Orchestrator) hostsIn(zone space.ZoneID) []device.ID {
	byID := o.hostsByID()
	if o.inZone == nil || o.zonesAt != o.spaces.Changes() {
		o.inZone = make(map[space.ZoneID][]device.ID)
		for _, id := range byID {
			if z, ok := o.spaces.ZoneOf(string(id)); ok {
				o.inZone[z.ID] = append(o.inZone[z.ID], id)
			}
		}
		o.zonesAt = o.spaces.Changes()
	}
	return o.inZone[zone]
}

// pick returns the best-scoring feasible host outside excluded (nil
// excludes nothing; replicas pass their siblings' hosts for
// anti-affinity). Deterministic: hosts are scanned in id order and the
// first of equal scores wins.
func (o *Orchestrator) pick(fn Function, excluded map[device.ID]bool) (device.ID, bool) {
	best := device.ID("")
	bestScore := 0.0
	found := false
	hosts := o.hostsByID()
	if fn.Zone != "" {
		if o.spaces == nil {
			return "", false
		}
		hosts = o.hostsIn(fn.Zone)
	}
	for _, id := range hosts {
		if excluded[id] || !o.feasible(fn, id) {
			continue
		}
		s := o.score(fn, id)
		if !found || s > bestScore {
			best, bestScore, found = id, s, true
		}
	}
	return best, found
}

func (o *Orchestrator) place(fn Function, host device.ID) {
	o.usedCPU[host] += fn.CPUMIPS
	o.usedMem[host] += fn.MemMB
	o.placements[fn.Name] = Placement{Function: fn, Host: host}
}

func (o *Orchestrator) release(p Placement) {
	o.usedCPU[p.Host] -= p.Function.CPUMIPS
	o.usedMem[p.Host] -= p.Function.MemMB
	delete(o.placements, p.Function.Name)
}

// DeployAvoiding places fn like Deploy but never on a host in avoid.
// The partition-aware planner uses it to spread a zone's controller
// replicas across connectivity domains: the backup replica avoids the
// primary's host and the zone's own gateway, so no single partition
// isolates every replica (DESIGN.md §9).
func (o *Orchestrator) DeployAvoiding(fn Function, avoid map[device.ID]bool) (device.ID, error) {
	if old, ok := o.placements[fn.Name]; ok {
		o.release(old)
	}
	host, ok := o.pick(fn, avoid)
	if !ok {
		return "", fmt.Errorf("orchestrate: no feasible host outside avoid set for function %q", fn.Name)
	}
	o.place(fn, host)
	return host, nil
}
