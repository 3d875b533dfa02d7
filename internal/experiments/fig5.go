package experiments

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/mape"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/space"
)

// Fig5Point compares a MAPE loop placed at the edge against the same
// loop placed in the cloud, at one environment change rate — the
// measured Figure 5: analysis and planning belong close to the
// end-devices.
type Fig5Point struct {
	// ShocksPerMinute is the expected rate of environment shocks.
	ShocksPerMinute float64
	// Persistence of the temperature requirement (ground truth).
	EdgeR  float64
	CloudR float64
	// Mean time to recover the requirement after a shock.
	EdgeMTTR  time.Duration
	CloudMTTR time.Duration
	// Adaptation actions executed by each loop.
	EdgeActions  int
	CloudActions int
}

const (
	fig5Horizon  = 15 * time.Minute
	fig5Step     = time.Second
	fig5Sample   = time.Second
	fig5TempLow  = 18.0
	fig5TempHigh = 26.0
	// Cooling is deliberately fast so that the time to recover from a
	// shock is dominated by *detection and actuation latency* — the
	// quantity that differs between loop placements — rather than by
	// the physics of cooling.
	fig5CoolRate = -2.0
	fig5WANLoss  = 0.10
	fig5Outage   = 0.3 // cloud down 30% of each minute
)

// Figure5 sweeps the shock rate.
func Figure5(seed int64, shocksPerMinute []float64) []Fig5Point {
	out := make([]Fig5Point, 0, len(shocksPerMinute))
	for _, rate := range shocksPerMinute {
		eR, eM, eA := runFig5(seed, rate, true)
		cR, cM, cA := runFig5(seed, rate, false)
		out = append(out, Fig5Point{
			ShocksPerMinute: rate,
			EdgeR:           eR, CloudR: cR,
			EdgeMTTR: eM, CloudMTTR: cM,
			EdgeActions: eA, CloudActions: cA,
		})
	}
	return out
}

// runFig5 executes one placement. The controller is a genuine MAPE-K
// loop: Monitor ingests the latest reading, Analyze evaluates the
// comfort and economy requirements with LTL3 monitors attached, Plan
// emits engage/disengage actions, Execute sends them to the actuator.
func runFig5(seed int64, shocksPerMinute float64, atEdge bool) (persistence float64, mttr time.Duration, actions int) {
	sim := simnet.New(simnet.WithSeed(seed), simnet.WithDefaultLatency(2*time.Millisecond))
	world := env.New(seed + 1)
	const zone = space.ZoneID("z")
	shockProb := shocksPerMinute * fig5Step.Seconds() / 60
	// Strong ambient heating produces a sawtooth workload: the zone
	// heats toward the band's upper edge continuously, so requirement
	// violations recur at a steady rate for every placement and each
	// violation's duration is dominated by the loop's detection and
	// actuation latency — the quantity Figure 5 compares. Shocks add
	// unscheduled disturbances on top.
	world.Define(zone, env.Temperature, env.Process{
		Initial: 22, Drift: 0.2, Noise: 0.02,
		ShockProb: shockProb, ShockMag: 6,
		// The floor equals the band's low end: only upper violations
		// occur, which the cooling actuator can correct.
		Min: fig5TempLow, Max: 60,
	})

	sensorEp := sim.AddNode("sensor")
	actEp := sim.AddNode("actuator")
	edgeEp := sim.AddNode("edge")
	cloudEp := sim.AddNode("cloud")
	for _, id := range []simnet.NodeID{"sensor", "actuator", "edge"} {
		sim.DegradeLink(id, "cloud", 40*time.Millisecond, fig5WANLoss)
	}

	sensorDev := device.New("sensor", device.Config{Class: device.ClassSensorNode})
	sensor := &device.Sensor{Device: sensorDev, Zone: zone, Variable: env.Temperature, NoiseStd: 0.05}
	actDev := device.New("actuator", device.Config{
		Class: device.ClassActuatorNode, Resources: &device.Resources{Mains: true},
	})
	actuator := &device.Actuator{Device: actDev, Zone: zone, Variable: env.Temperature, Effect: fig5CoolRate}

	// The loop host.
	host := edgeEp
	if !atEdge {
		host = cloudEp
	}

	// Sensor → host: plain periodic readings.
	table := newFig5Table()
	host.OnMessage(func(_ simnet.NodeID, msg simnet.Message) {
		if item, ok := msg.(dataflow.Item); ok {
			table.put(item)
		}
	})
	sensorEp.Every(fig5Sample, func() {
		v, ok := sensor.Sample(world, sim.Rand().NormFloat64())
		if !ok {
			return
		}
		sensorEp.Send(host.ID(), dataflow.Item{Key: "temp", Value: v, ProducedAt: sim.Now()})
	})

	// Actuator obeys engage commands.
	actEp.OnMessage(func(_ simnet.NodeID, msg simnet.Message) {
		if engage, ok := msg.(bool); ok {
			actuator.SetEngaged(engage)
		}
	})

	// The MAPE-K loop.
	loop := mape.NewLoop(mape.NewKnowledge("loop", sim.Now), sim.Now)
	loop.AddMonitor(func(k *mape.Knowledge) {
		if item, ok := table.get("temp"); ok {
			if v, isF := item.Value.(float64); isF {
				k.Put("temp", v)
				k.Put("age", float64(sim.Now()-item.ProducedAt))
			}
		}
	})
	// comfort judges the last known temperature (a violation seen on
	// stale data is still the loop's best knowledge); fresh tracks
	// data timeliness separately and plans no actuation — acting on
	// missing data is exactly the failure mode a resilient loop must
	// avoid.
	loop.AddRule(mape.PropRule{Prop: "comfort", Eval: func(k *mape.Knowledge) bool {
		v, ok := k.GetFloat("temp")
		return !ok || v <= fig5TempHigh
	}})
	loop.AddRule(mape.PropRule{Prop: "fresh", Eval: func(k *mape.Knowledge) bool {
		age, ok := k.GetFloat("age")
		return ok && time.Duration(age) <= 5*fig5Sample
	}})
	loop.AddRule(mape.PropRule{Prop: "economy", Eval: func(k *mape.Knowledge) bool {
		engaged, _ := k.Get("engaged")
		v, ok := k.GetFloat("temp")
		return !ok || engaged != true || v > fig5TempLow+3
	}})
	loop.AddRequirement(&model.Requirement{ID: "R-comfort", Prop: "comfort",
		Description: "zone temperature within the comfort band"})
	loop.AddRequirement(&model.Requirement{ID: "R-fresh", Prop: "fresh",
		Description: "readings fresh at the loop"})
	loop.AddRequirement(&model.Requirement{ID: "R-economy", Prop: "economy",
		Description: "cooling disengages once the zone is cool"})
	loop.SetPlanner(func(k *mape.Knowledge, issues []mape.Issue) []mape.Action {
		var out []mape.Action
		for _, is := range issues {
			switch is.Prop {
			case "comfort":
				out = append(out, mape.Action{Name: "engage", Value: true})
			case "economy":
				out = append(out, mape.Action{Name: "engage", Value: false})
			}
		}
		return out
	})
	loop.SetExecutor(func(k *mape.Knowledge, a mape.Action) bool {
		engage, ok := a.Value.(bool)
		if !ok {
			return false
		}
		k.Put("engaged", engage)
		return host.Send("actuator", engage)
	})
	host.Every(fig5Sample, func() {
		loop.Cycle()
		// Re-assert the desired actuation state every cycle: commands
		// are idempotent, so this repairs lost messages and actuator
		// restarts (same mechanism as the core archetypes).
		if e, ok := loop.Knowledge().Get("engaged"); ok {
			if engage, isBool := e.(bool); isBool {
				host.Send("actuator", engage)
			}
		}
	})

	// Cloud outages (only matter for the cloud placement).
	downFor := time.Duration(fig5Outage * float64(time.Minute))
	var outage func(at time.Duration)
	outage = func(at time.Duration) {
		sim.At(at, func() { sim.SetDown("cloud", true) })
		sim.At(at+downFor, func() { sim.SetDown("cloud", false) })
		if next := at + time.Minute; next < fig5Horizon {
			outage(next)
		}
	}
	outage(20 * time.Second)

	// Physics + ground truth sampling: each sample that leaves the band
	// opens an outage, the next one back in band closes it.
	var outages []metrics.Interval
	inBand := true
	var step func()
	step = func() {
		world.Step(fig5Step)
		if sim.NodeUp("actuator") {
			actuator.Apply(world, fig5Step)
		}
		v, _ := world.Value(zone, env.Temperature)
		if ok := v >= fig5TempLow && v <= fig5TempHigh; ok != inBand {
			inBand = ok
			if ok {
				outages[len(outages)-1].To = sim.Now()
			} else {
				outages = append(outages, metrics.Interval{From: sim.Now(), To: fig5Horizon})
			}
		}
		if sim.Now()+fig5Step <= fig5Horizon {
			sim.After(fig5Step, step)
		}
	}
	sim.After(fig5Step, step)

	sim.RunUntil(fig5Horizon)
	recovered := outages
	if !inBand {
		recovered = outages[:len(outages)-1]
	}
	return metrics.Persistence(outages, 0, fig5Horizon), metrics.MeanDuration(recovered), loop.Stats().ActionsExecuted
}

// fig5Table is the host's latest-reading cache.
type fig5Table struct {
	items map[string]dataflow.Item
}

func newFig5Table() *fig5Table {
	return &fig5Table{items: make(map[string]dataflow.Item)}
}

func (t *fig5Table) put(item dataflow.Item) {
	if cur, ok := t.items[item.Key]; ok && cur.ProducedAt > item.ProducedAt {
		return
	}
	t.items[item.Key] = item
}

func (t *fig5Table) get(key string) (dataflow.Item, bool) {
	item, ok := t.items[key]
	return item, ok
}

// FormatFigure5 renders the series.
func FormatFigure5(points []Fig5Point) string {
	rows := [][]string{{"shocks/min", "edge_R", "cloud_R", "edge_MTTR", "cloud_MTTR", "edge_acts", "cloud_acts"}}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", p.ShocksPerMinute),
			fmt.Sprintf("%.3f", p.EdgeR),
			fmt.Sprintf("%.3f", p.CloudR),
			p.EdgeMTTR.Round(time.Second).String(),
			p.CloudMTTR.Round(time.Second).String(),
			fmt.Sprintf("%d", p.EdgeActions),
			fmt.Sprintf("%d", p.CloudActions),
		})
	}
	return formatTable(rows)
}
