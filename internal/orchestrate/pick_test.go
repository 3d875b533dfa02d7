package orchestrate

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/device"
	"repro/internal/space"
)

// modelPick is pick as it was before the orchestrator kept its hosts
// sorted and indexed by zone: copy the ids, sort them, ask the map for
// each host's zone, take the first best score.
func modelPick(o *Orchestrator, fn Function, excluded map[device.ID]bool) (device.ID, bool) {
	best := device.ID("")
	bestScore := 0.0
	found := false
	ids := append([]device.ID(nil), o.hostOrder...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if excluded[id] || !o.feasible(fn, id) {
			continue
		}
		if fn.Zone != "" {
			if z, ok := o.spaces.ZoneOf(string(id)); !ok || z.ID != fn.Zone {
				continue
			}
		}
		s := o.score(fn, id)
		if !found || s > bestScore {
			best, bestScore, found = id, s, true
		}
	}
	return best, found
}

// grid is a spatial map of n unit-square zones in a row, "z0".."z<n-1>".
func grid(tb testing.TB, n int) *space.Map {
	tb.Helper()
	m := space.NewMap()
	m.AddDomain(space.Domain{ID: "d", Trusted: true})
	for z := 0; z < n; z++ {
		zone := space.Zone{
			ID:       space.ZoneID(fmt.Sprintf("z%d", z)),
			Min:      space.Point{X: float64(2 * z)},
			Max:      space.Point{X: float64(2*z + 1), Y: 1},
			DomainID: "d",
		}
		if err := m.AddZone(zone); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// TestPickMatchesBruteForce interleaves registrations, deployments,
// host failures, heals, host moves and zone redefinitions, and requires
// pick to choose the model's host for every kind of function before
// each step: a stale zone index fails it.
func TestPickMatchesBruteForce(t *testing.T) {
	const zones = 6
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spaces := grid(t, zones)
		down := map[device.ID]bool{}
		o := New(spaces, func(id device.ID) bool { return !down[id] })
		classes := []device.Class{device.ClassGateway, device.ClassCloudlet, device.ClassCloudVM, device.ClassMicrocontroller}
		var registered []device.ID
		// somewhere is the centre of a zone's original square or of the
		// gap after it, which only a redefined zone can contain.
		somewhere := func() space.Point {
			return space.Point{X: float64(rng.Intn(2*zones)) + 0.5, Y: 0.5}
		}
		// Every id is placed before any registers, so a registration
		// need not move the map's change counter.
		for i := 0; i < 60; i++ {
			spaces.Place(fmt.Sprintf("h%02d", i), somewhere(), "d")
		}
		register := func() {
			// Ids arrive in no order, and an id may be registered again.
			id := device.ID(fmt.Sprintf("h%02d", rng.Intn(60)))
			if rng.Intn(2) == 0 {
				z := rng.Intn(zones)
				spaces.Place(string(id), space.Point{X: float64(2*z) + 0.5, Y: 0.5}, "d")
			}
			o.RegisterHost(device.New(id, device.Config{Class: classes[rng.Intn(len(classes))]}))
			registered = append(registered, id)
		}
		function := func(name string) Function {
			fn := Function{
				Name:       name,
				Requires:   []device.Capability{device.CapControl},
				CPUMIPS:    50 + rng.Intn(400),
				MemMB:      32,
				PreferEdge: rng.Intn(2) == 0,
			}
			if rng.Intn(2) == 0 {
				fn.Zone = space.ZoneID(fmt.Sprintf("z%d", rng.Intn(zones)))
			}
			return fn
		}
		for i := 0; i < 3; i++ {
			register()
		}
		for step := 0; step < 400; step++ {
			fn := function(fmt.Sprintf("f%d", rng.Intn(40)))
			var excluded map[device.ID]bool
			if rng.Intn(3) == 0 {
				excluded = map[device.ID]bool{registered[rng.Intn(len(registered))]: true}
			}
			got, ok := o.pick(fn, excluded)
			want, wantOK := modelPick(o, fn, excluded)
			if got != want || ok != wantOK {
				t.Fatalf("seed %d step %d: pick(%+v, %v) = %q %v, model %q %v", seed, step, fn, excluded, got, ok, want, wantOK)
			}
			switch rng.Intn(10) {
			case 0, 1:
				register()
			case 2:
				id := registered[rng.Intn(len(registered))]
				down[id] = !down[id]
			case 3:
				o.Heal()
			case 4:
				o.DeployAvoiding(fn, excluded)
			case 5:
				o.DeployReplicated(function(fmt.Sprintf("r%d", rng.Intn(5))), 2)
			case 6:
				id := registered[rng.Intn(len(registered))]
				if err := spaces.Move(string(id), somewhere()); err != nil {
					t.Fatal(err)
				}
			case 7:
				// Redefine a zone over any square or gap: it may now
				// overlap a zone registered before or after it.
				at := somewhere()
				zone := space.Zone{
					ID:       space.ZoneID(fmt.Sprintf("z%d", rng.Intn(zones))),
					Min:      space.Point{X: at.X - 0.5},
					Max:      space.Point{X: at.X + 0.5, Y: 1},
					DomainID: "d",
				}
				if err := spaces.AddZone(zone); err != nil {
					t.Fatal(err)
				}
			default:
				o.Deploy(fn)
			}
		}
		if len(o.byID) == 0 || len(o.byID) > len(o.hostOrder) {
			t.Fatalf("seed %d: %d sorted hosts for %d registered", seed, len(o.byID), len(o.hostOrder))
		}
	}
}

// city is the orchestrator of one city edge node: 200 gateways, one
// per zone, and 5 cloudlets, all registered, with one zone controller
// placed per zone as a replan leaves them.
func city(tb testing.TB) *Orchestrator {
	tb.Helper()
	const zones = 200
	spaces := grid(tb, zones)
	o := New(spaces, nil)
	for z := 0; z < zones; z++ {
		id := device.ID(fmt.Sprintf("gw-%03d", z))
		spaces.Place(string(id), space.Point{X: float64(2*z) + 0.5, Y: 0.5}, "d")
		o.RegisterHost(device.New(id, device.Config{Class: device.ClassGateway}))
	}
	for c := 0; c < 5; c++ {
		id := device.ID(fmt.Sprintf("cloudlet-%d", c))
		spaces.Place(string(id), space.Point{X: -10, Y: float64(c)}, "d")
		o.RegisterHost(device.New(id, device.Config{Class: device.ClassCloudlet}))
	}
	for z := 0; z < zones; z++ {
		if _, err := o.Deploy(controller(z, true)); err != nil {
			tb.Fatal(err)
		}
	}
	return o
}

func controller(z int, zoned bool) Function {
	fn := Function{
		Name:       fmt.Sprintf("control/z%d", z),
		Requires:   []device.Capability{device.CapControl},
		CPUMIPS:    50,
		MemMB:      32,
		PreferEdge: true,
	}
	if zoned {
		fn.Zone = space.ZoneID(fmt.Sprintf("z%d", z))
	}
	return fn
}

func TestPickDoesNotAllocate(t *testing.T) {
	o := city(t)
	zoned, unzoned := controller(117, true), controller(117, false)
	avoid := map[device.ID]bool{"gw-117": true}
	for name, pick := range map[string]func(){
		"zoned":     func() { o.pick(zoned, nil) },
		"unzoned":   func() { o.pick(unzoned, nil) },
		"excluding": func() { o.pick(unzoned, avoid) },
	} {
		if n := testing.AllocsPerRun(50, pick); n != 0 {
			t.Errorf("%s pick over 205 hosts: %v allocs, want 0", name, n)
		}
	}
	if host, ok := o.pick(zoned, nil); !ok || host != "gw-117" {
		t.Fatalf("zoned pick = %q %v, want the zone's gateway", host, ok)
	}
}

// BenchmarkPick is one placement decision over the city's 205 hosts,
// the inner step of a leader's replan (one zoned pick per zone, an
// unzoned one when the zone's own gateway is out).
func BenchmarkPick(b *testing.B) {
	for _, zoned := range []bool{true, false} {
		name := "unzoned"
		if zoned {
			name = "zoned"
		}
		b.Run(name, func(b *testing.B) {
			o := city(b)
			fn := controller(117, zoned)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := o.pick(fn, nil); !ok {
					b.Fatal("no host")
				}
			}
		})
	}
}
