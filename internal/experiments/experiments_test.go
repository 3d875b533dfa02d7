package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// quickCfg shortens the Table 1/2 scenario for tests.
func quickCfg() core.ScenarioConfig {
	cfg := core.DefaultScenario()
	cfg.Duration = 6 * time.Minute
	return cfg
}

func TestFormatTable(t *testing.T) {
	s := formatTable([][]string{{"a", "bb"}, {"ccc", "d"}})
	if !strings.Contains(s, "a") || !strings.Contains(s, "---") {
		t.Fatalf("table = %q", s)
	}
	if formatTable(nil) != "" {
		t.Fatal("empty table should render empty")
	}
}

func TestTable12Shape(t *testing.T) {
	reports := core.RunMatrix(quickCfg())
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	out := core.FormatReports(reports)
	if !strings.Contains(out, "ML4-resilient") {
		t.Fatalf("missing ML4 row:\n%s", out)
	}
}

func TestTable12StatsOrderingAcrossSeeds(t *testing.T) {
	cfg := quickCfg()
	runs, err := MatrixCampaign(cfg, []int64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	stats := StatsFromRuns(runs)
	if len(stats) != 4 {
		t.Fatalf("stats = %d archetypes", len(stats))
	}
	byArch := make(map[core.Archetype]ArchetypeStats)
	for _, s := range stats {
		if s.Runs != 3 {
			t.Fatalf("runs = %d", s.Runs)
		}
		const eps = 1e-9
		if s.MinR > s.MeanR+eps || s.MeanR > s.MaxR+eps || s.StdDevR < 0 {
			t.Fatalf("inconsistent stats %+v", s)
		}
		byArch[s.Archetype] = s
	}
	// The headline ordering must hold in the mean, not just one seed.
	if byArch[core.ML4].MeanR <= byArch[core.ML1].MeanR {
		t.Fatalf("mean ML4 %.3f not above mean ML1 %.3f",
			byArch[core.ML4].MeanR, byArch[core.ML1].MeanR)
	}
	// And even ML4's worst seed should beat ML1's best.
	if byArch[core.ML4].MinR <= byArch[core.ML1].MaxR {
		t.Fatalf("ML4 min %.3f does not dominate ML1 max %.3f",
			byArch[core.ML4].MinR, byArch[core.ML1].MaxR)
	}
	if FormatTable12Stats(stats) == "" {
		t.Fatal("format empty")
	}
}

func TestFigure1ScalesWithoutCollapse(t *testing.T) {
	points := Figure1(1, []int{4, 16}, 30*time.Second)
	if len(points) != 2 {
		t.Fatal("wrong point count")
	}
	if points[1].Devices <= points[0].Devices {
		t.Fatal("device count did not grow")
	}
	if points[0].Messages == 0 || points[1].Messages == 0 {
		t.Fatal("no traffic simulated")
	}
	// Larger deployments move more messages in the same horizon.
	if points[1].Messages <= points[0].Messages {
		t.Fatal("message volume did not scale with size")
	}
	if FormatFigure1(points) == "" {
		t.Fatal("format empty")
	}
}

func TestFigure2StateSpaceGrowsAndVerdictsHold(t *testing.T) {
	points := Figure2([]int{2, 4, 6}, 2)
	for i, p := range points {
		if i > 0 && p.States <= points[i-1].States {
			t.Fatal("state space did not grow")
		}
		// With ≥3 control hosts, control survives any 2 failures.
		wantCtrl := p.Hosts > 2
		if p.ControlSurvives != wantCtrl {
			t.Fatalf("hosts=%d: AG(control) = %v, want %v", p.Hosts, p.ControlSurvives, wantCtrl)
		}
		if !p.Recoverable {
			t.Fatalf("hosts=%d: recovery property failed", p.Hosts)
		}
	}
	quants := Figure2Quantitative([]int{1, 5, 10})
	if len(quants) != 3 {
		t.Fatal("wrong quant count")
	}
	for i := 1; i < len(quants); i++ {
		if quants[i].PRecover < quants[i-1].PRecover {
			t.Fatal("bounded reachability not monotone in the bound")
		}
	}
	if quants[0].PRecover != 0.4 {
		t.Fatalf("P[F<=1 up] = %v, want 0.4", quants[0].PRecover)
	}
	if FormatFigure2(points, quants) == "" {
		t.Fatal("format empty")
	}
}

func TestFigure3DecentralizedSurvivesCloudOutage(t *testing.T) {
	points := Figure3(1, []float64{0, 0.5})
	calm, stressed := points[0], points[1]

	// Without outages both modes work.
	if calm.CentralizedSuccess < 0.95 || calm.DecentralizedSuccess < 0.95 {
		t.Fatalf("calm success: central %.3f decentral %.3f", calm.CentralizedSuccess, calm.DecentralizedSuccess)
	}
	// At 50%% cloud downtime, centralized control collapses towards
	// 50%% while decentralized stays high.
	if stressed.CentralizedSuccess > 0.7 {
		t.Fatalf("centralized success %.3f despite 50%% downtime", stressed.CentralizedSuccess)
	}
	if stressed.DecentralizedSuccess < 0.9 {
		t.Fatalf("decentralized success %.3f under cloud downtime", stressed.DecentralizedSuccess)
	}
	// Edge actions arrive faster than WAN actions.
	if calm.DecentralizedP95 >= calm.CentralizedP95 {
		t.Fatalf("edge p95 %v not below WAN p95 %v", calm.DecentralizedP95, calm.CentralizedP95)
	}
	if FormatFigure3(points) == "" {
		t.Fatal("format empty")
	}
}

func TestFigure4EdgeGovernedBeatsCloudMediated(t *testing.T) {
	points := Figure4(1, []float64{0, 0.5})
	calm, stressed := points[0], points[1]

	// Cloud mediation leaks the sensitive stream; the governed edge
	// plane never does.
	if calm.CloudViolations == 0 {
		t.Fatal("cloud-mediated mode showed no violations")
	}
	if calm.EdgeViolations != 0 || stressed.EdgeViolations != 0 {
		t.Fatalf("edge-governed mode leaked: %d / %d", calm.EdgeViolations, stressed.EdgeViolations)
	}
	// Under WAN partitions, edge availability holds while cloud-path
	// availability degrades.
	if stressed.EdgeAvail < 0.9 {
		t.Fatalf("edge availability %.3f under partitions", stressed.EdgeAvail)
	}
	if stressed.CloudAvail >= stressed.EdgeAvail {
		t.Fatalf("cloud availability %.3f not below edge %.3f", stressed.CloudAvail, stressed.EdgeAvail)
	}
	if FormatFigure4(points) == "" {
		t.Fatal("format empty")
	}
}

func TestFigure5EdgePlacementSustainsHigherR(t *testing.T) {
	points := Figure5(1, []float64{2})
	p := points[0]
	if p.EdgeR < p.CloudR {
		t.Fatalf("edge R %.3f below cloud R %.3f", p.EdgeR, p.CloudR)
	}
	if p.EdgeActions == 0 || p.CloudActions == 0 {
		t.Fatalf("loops idle: edge %d cloud %d", p.EdgeActions, p.CloudActions)
	}
	if FormatFigure5(points) == "" {
		t.Fatal("format empty")
	}
}

func TestAblationA1NativeBeatsBoltOn(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 8 * time.Minute
	reports := AblationA1(cfg)
	if len(reports) != 3 {
		t.Fatal("wrong report count")
	}
	plain, bolted, native := reports[0], reports[1], reports[2]
	// Bolt-on mechanisms must not beat the native architecture.
	if bolted.GoalPersistence > native.GoalPersistence {
		t.Fatalf("bolt-on R %.3f above native R %.3f", bolted.GoalPersistence, native.GoalPersistence)
	}
	// And native must clearly beat plain ML2.
	if native.GoalPersistence <= plain.GoalPersistence {
		t.Fatalf("native R %.3f not above plain R %.3f", native.GoalPersistence, plain.GoalPersistence)
	}
}

func TestAblationA2EveryMechanismMatters(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 8 * time.Minute
	variants := AblationA2(cfg)
	if len(variants) != 4 || variants[0].Name != "full" {
		t.Fatalf("variants = %+v", variants)
	}
	full := variants[0].Report
	for _, v := range variants[1:] {
		if v.Report.GoalPersistence > full.GoalPersistence+0.01 {
			t.Fatalf("ablation %q beat the full architecture: %.3f vs %.3f",
				v.Name, v.Report.GoalPersistence, full.GoalPersistence)
		}
	}
	if FormatA2(variants) == "" {
		t.Fatal("format empty")
	}
}

func TestExtensionMobilityHandoverDominates(t *testing.T) {
	points := ExtensionMobility(1, []float64{2, 8})
	for _, p := range points {
		if p.Crossings == 0 {
			t.Fatalf("speed %.1f: no zone crossings", p.SpeedMps)
		}
		if p.HandoverFreshness < 0.95 {
			t.Fatalf("speed %.1f: handover freshness = %.3f", p.SpeedMps, p.HandoverFreshness)
		}
		if p.StaticFreshness > 0.75 {
			t.Fatalf("speed %.1f: static binding freshness = %.3f, should starve the away zone", p.SpeedMps, p.StaticFreshness)
		}
		if p.HandoverFreshness <= p.StaticFreshness {
			t.Fatalf("speed %.1f: handover %.3f not above static %.3f", p.SpeedMps, p.HandoverFreshness, p.StaticFreshness)
		}
	}
	// Faster movement → more crossings.
	if points[1].Crossings <= points[0].Crossings {
		t.Fatalf("crossings did not grow with speed: %d vs %d", points[0].Crossings, points[1].Crossings)
	}
	if FormatMobility(points) == "" {
		t.Fatal("format empty")
	}
}

func TestExtensionCostTradeoff(t *testing.T) {
	cfg := quickCfg()
	points := ExtensionCost(cfg, []time.Duration{2 * time.Second, 16 * time.Second})
	fast, slow := points[0], points[1]
	if fast.Messages <= slow.Messages {
		t.Fatalf("faster sync should cost more traffic: %d vs %d", fast.Messages, slow.Messages)
	}
	if fast.StaleP95 >= slow.StaleP95 {
		t.Fatalf("faster sync should be fresher: %v vs %v", fast.StaleP95, slow.StaleP95)
	}
	if fast.GoalR < slow.GoalR-0.02 {
		t.Fatalf("faster sync should not hurt resilience: %.3f vs %.3f", fast.GoalR, slow.GoalR)
	}
	if FormatCost(points) == "" {
		t.Fatal("format empty")
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a := Figure3(5, []float64{0.3})
	b := Figure3(5, []float64{0.3})
	if a[0] != b[0] {
		t.Fatalf("Figure3 not deterministic: %+v vs %+v", a[0], b[0])
	}
	fa := Figure4(5, []float64{0.3})
	fb := Figure4(5, []float64{0.3})
	if fa[0] != fb[0] {
		t.Fatalf("Figure4 not deterministic: %+v vs %+v", fa[0], fb[0])
	}
}
