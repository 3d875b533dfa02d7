package repro

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// BenchmarkTable1MaturityMatrix regenerates Tables 1 and 2: the full
// smart-city scenario at every maturity level under the standard
// disruption schedule. Reported metrics carry each archetype's
// headline resilience R (time-weighted goal satisfaction).
func BenchmarkTable1MaturityMatrix(b *testing.B) {
	cfg := core.DefaultScenario()
	var reports []core.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports = core.RunMatrix(cfg)
	}
	b.StopTimer()
	for _, r := range reports {
		b.ReportMetric(r.GoalPersistence, "R_"+r.Archetype.String())
	}
	b.Logf("\n%s", core.FormatReports(reports))
}

// BenchmarkCityScaleMatrix runs the maturity matrix at the Figure-1
// city tier: 200 zones behind 200 gateways — 5009 devices — under the
// heavy disruption schedule. This is the scale the timing-wheel
// scheduler and boxing-free message path exist for; -short swaps in
// the reduced smoke tier CI uses.
func BenchmarkCityScaleMatrix(b *testing.B) {
	cfg := core.CityScenario()
	if testing.Short() {
		cfg = core.CityScenarioSmoke()
	}
	var reports []core.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports = core.RunMatrix(cfg)
	}
	b.StopTimer()
	for _, r := range reports {
		b.ReportMetric(r.GoalPersistence, "R_"+r.Archetype.String())
	}
	b.Logf("\n%s", core.FormatReports(reports))
}

// BenchmarkMetroConstruction prices core.NewSystem alone at the
// metropolis shape the gated benchmark's sim-metro workload uses (ML4,
// 250 zones, 2 lanes): what a run pays before its first event. B/device
// is the figure the construction gate in internal/core bounds; it must
// not grow with the zone count, so -short at 125 zones should report
// about the same number.
func BenchmarkMetroConstruction(b *testing.B) {
	cfg := core.MetropolisScenarioSmoke()
	cfg.Zones, cfg.Shards = 250, 2
	if testing.Short() {
		cfg.Zones = 125
	}
	devices := float64(len(core.TopologyOf(cfg).All()))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builtSystem = core.NewSystem(cfg, core.ML4)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n/devices, "B/device")
	b.ReportMetric(b.Elapsed().Seconds()*1e3/n/(devices/1000), "ms/kdev")
}

// builtSystem keeps BenchmarkMetroConstruction's result reachable.
var builtSystem *core.System

// BenchmarkMatrixCampaignParallel measures the experiment engine's
// scaling: the same 8-seed maturity-matrix campaign on 1, 2, and 4
// workers. Journals are byte-identical at every width (the engine's
// determinism guarantee), so the sub-benchmarks differ only in
// wall-clock time.
func BenchmarkMatrixCampaignParallel(b *testing.B) {
	cfg := core.DefaultScenario()
	cfg.Duration = 5 * time.Minute
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "serial", 2: "workers-2", 4: "workers-4"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runs, err := experiments.MatrixCampaign(cfg, seeds, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(runs) != len(seeds) {
					b.Fatalf("got %d seed runs, want %d", len(runs), len(seeds))
				}
			}
		})
	}
}

// BenchmarkFigure1LandscapeScale regenerates Figure 1's landscape as a
// capacity experiment: an edge-centric deployment swept from ~100 to
// ~5000 heterogeneous devices for one virtual minute.
func BenchmarkFigure1LandscapeScale(b *testing.B) {
	zoneCounts := []int{20, 100, 400, 1000}
	var points []experiments.Fig1Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = experiments.Figure1(1, zoneCounts, time.Minute)
	}
	b.StopTimer()
	last := points[len(points)-1]
	b.ReportMetric(float64(last.Devices), "max_devices")
	b.ReportMetric(last.MsgPerWallSec, "msg/wall_s")
	b.Logf("\n%s", experiments.FormatFigure1(points))
}

// BenchmarkFigure2Verification regenerates Figure 2: system facets
// translated to Kripke structures and checked against resilience
// properties at growing state-space sizes, plus quantitative
// (PCTL-style) bounded-recovery analysis.
func BenchmarkFigure2Verification(b *testing.B) {
	hosts := []int{4, 8, 12, 16}
	bounds := []int{1, 2, 5, 10, 20}
	var points []experiments.Fig2Point
	var quants []experiments.Fig2Quant
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = experiments.Figure2(hosts, 3)
		quants = experiments.Figure2Quantitative(bounds)
	}
	b.StopTimer()
	b.ReportMetric(float64(points[len(points)-1].States), "max_states")
	b.Logf("\n%s", experiments.FormatFigure2(points, quants))
}

// BenchmarkFigure3DecentralizedControl regenerates Figure 3: control
// action success of cloud-centralized versus edge-consensus control as
// cloud downtime grows.
func BenchmarkFigure3DecentralizedControl(b *testing.B) {
	downtimes := []float64{0, 0.2, 0.4, 0.6, 0.8}
	var points []experiments.Fig3Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = experiments.Figure3(1, downtimes)
	}
	b.StopTimer()
	worst := points[len(points)-1]
	b.ReportMetric(worst.CentralizedSuccess, "central@80%down")
	b.ReportMetric(worst.DecentralizedSuccess, "decentral@80%down")
	b.Logf("\n%s", experiments.FormatFigure3(points))
}

// BenchmarkFigure4DataFlows regenerates Figure 4: availability,
// timeliness and privacy of cloud-mediated versus edge-governed data
// flows under WAN partitions.
func BenchmarkFigure4DataFlows(b *testing.B) {
	duties := []float64{0, 0.25, 0.5, 0.75}
	var points []experiments.Fig4Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = experiments.Figure4(1, duties)
	}
	b.StopTimer()
	worst := points[len(points)-1]
	b.ReportMetric(worst.CloudAvail, "cloud_avail@75%down")
	b.ReportMetric(worst.EdgeAvail, "edge_avail@75%down")
	b.ReportMetric(float64(worst.CloudViolations), "cloud_violations")
	b.Logf("\n%s", experiments.FormatFigure4(points))
}

// BenchmarkFigure5MAPEPlacement regenerates Figure 5: the same MAPE-K
// loop placed at the edge versus in the cloud, as the environment's
// rate of change grows.
func BenchmarkFigure5MAPEPlacement(b *testing.B) {
	rates := []float64{1, 2, 4, 8}
	var points []experiments.Fig5Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = experiments.Figure5(1, rates)
	}
	b.StopTimer()
	last := points[len(points)-1]
	b.ReportMetric(last.EdgeR, "edge_R@8shocks")
	b.ReportMetric(last.CloudR, "cloud_R@8shocks")
	b.Logf("\n%s", experiments.FormatFigure5(points))
}

// BenchmarkAblationBoltOnVsNative regenerates ablation A1: the
// roadmap's claim that bolt-on mechanisms (retries, re-subscription)
// cannot substitute for natively resilient architecture.
func BenchmarkAblationBoltOnVsNative(b *testing.B) {
	cfg := core.DefaultScenario()
	var reports []core.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports = experiments.AblationA1(cfg)
	}
	b.StopTimer()
	b.ReportMetric(reports[0].GoalPersistence, "R_ML2_plain")
	b.ReportMetric(reports[1].GoalPersistence, "R_ML2_bolton")
	b.ReportMetric(reports[2].GoalPersistence, "R_ML4_native")
	b.Logf("\nplain / bolt-on / native:\n%s", core.FormatReports(reports))
}

// BenchmarkExtensionMobility regenerates extension X1: a mobile device
// crossing zone boundaries, static binding versus nearest-edge
// handover over the replicated data plane (the paper's mobility
// concern, §VII).
func BenchmarkExtensionMobility(b *testing.B) {
	speeds := []float64{1, 2, 4, 8}
	var points []experiments.MobilityPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = experiments.ExtensionMobility(1, speeds)
	}
	b.StopTimer()
	last := points[len(points)-1]
	b.ReportMetric(last.StaticFreshness, "static_fresh@8mps")
	b.ReportMetric(last.HandoverFreshness, "handover_fresh@8mps")
	b.Logf("\n%s", experiments.FormatMobility(points))
}

// BenchmarkExtensionCost regenerates extension X2: the ML4 data
// plane's sync interval swept against resilience and traffic — the
// knob that prices the paper's "combined effect".
func BenchmarkExtensionCost(b *testing.B) {
	cfg := core.DefaultScenario()
	intervals := []time.Duration{time.Second, 2 * time.Second, 5 * time.Second, 15 * time.Second}
	var points []experiments.X2Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = experiments.ExtensionCost(cfg, intervals)
	}
	b.StopTimer()
	b.ReportMetric(points[0].GoalR, "R@1s")
	b.ReportMetric(points[len(points)-1].GoalR, "R@15s")
	b.Logf("\n%s", experiments.FormatCost(points))
}

// BenchmarkAblationDecentralization regenerates ablation A2: ML4 with
// one decentralization mechanism removed at a time.
func BenchmarkAblationDecentralization(b *testing.B) {
	cfg := core.DefaultScenario()
	var variants []experiments.A2Variant
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		variants = experiments.AblationA2(cfg)
	}
	b.StopTimer()
	for _, v := range variants {
		b.ReportMetric(v.Report.GoalPersistence, "R_"+v.Name)
	}
	b.Logf("\n%s", experiments.FormatA2(variants))
}

// BenchmarkObsOverhead prices the observability layer: the same
// disrupted ML4 run with the bus idle (no subscribers — the fast
// path every production run takes) versus with a trace collector
// attached. The delta is the full cost of capturing every event.
func BenchmarkObsOverhead(b *testing.B) {
	cfg := core.DefaultScenario()
	cfg.Duration = 5 * time.Minute
	b.Run("zero-subscribers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := core.NewSystem(cfg, core.ML4)
			sys.Run()
		}
	})
	b.Run("trace-subscriber", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := core.NewSystem(cfg, core.ML4)
			tc := obs.Collect(sys.Bus())
			sys.Run()
			tc.Close()
			if tc.Len() == 0 {
				b.Fatal("trace collector saw no events")
			}
		}
	})
}
