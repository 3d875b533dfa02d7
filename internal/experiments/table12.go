package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// ArchetypeStats aggregates the headline resilience metric across
// several seeds for one archetype.
type ArchetypeStats struct {
	Archetype core.Archetype
	Runs      int
	MeanR     float64
	MinR      float64
	MaxR      float64
	StdDevR   float64
}

// statsFromSamples reduces per-archetype samples to the aggregate rows,
// in canonical archetype order.
func statsFromSamples(byArch map[core.Archetype][]float64) []ArchetypeStats {
	out := make([]ArchetypeStats, 0, len(byArch))
	for _, a := range core.AllArchetypes() {
		rs := byArch[a]
		if len(rs) == 0 {
			continue
		}
		st := ArchetypeStats{Archetype: a, Runs: len(rs), MinR: rs[0], MaxR: rs[0]}
		sum := 0.0
		for _, r := range rs {
			sum += r
			if r < st.MinR {
				st.MinR = r
			}
			if r > st.MaxR {
				st.MaxR = r
			}
		}
		st.MeanR = sum / float64(len(rs))
		varSum := 0.0
		for _, r := range rs {
			d := r - st.MeanR
			varSum += d * d
		}
		st.StdDevR = math.Sqrt(varSum / float64(len(rs)))
		out = append(out, st)
	}
	return out
}

// FormatTable12Stats renders the aggregate.
func FormatTable12Stats(stats []ArchetypeStats) string {
	rows := [][]string{{"archetype", "runs", "mean_R", "min_R", "max_R", "stddev"}}
	for _, s := range stats {
		rows = append(rows, []string{
			s.Archetype.String(),
			fmt.Sprintf("%d", s.Runs),
			fmt.Sprintf("%.3f", s.MeanR),
			fmt.Sprintf("%.3f", s.MinR),
			fmt.Sprintf("%.3f", s.MaxR),
			fmt.Sprintf("%.3f", s.StdDevR),
		})
	}
	return formatTable(rows)
}

// AblationA1 compares bolt-on resilience (ML2 hardened with QoS-1
// retries and aggressive re-subscription) against native ML4 — the
// roadmap's claim that resilience must be built into the core, not
// added on.
func AblationA1(cfg core.ScenarioConfig) []core.Report {
	plain := core.NewSystem(cfg, core.ML2).Run()
	hardened := cfg
	hardened.BoltOnResilience = true
	bolted := core.NewSystem(hardened, core.ML2).Run()
	native := core.NewSystem(cfg, core.ML4).Run()
	return []core.Report{plain, bolted, native}
}

// A2Variant names one ML4 ablation.
type A2Variant struct {
	Name   string
	Report core.Report
}

// AblationA2 removes one decentralization mechanism of ML4 at a time:
// sensor failover, placement healing, CRDT data synchronization.
func AblationA2(cfg core.ScenarioConfig) []A2Variant {
	variants := []string{"", "no-failover", "no-replan", "no-sync"}
	out := make([]A2Variant, 0, len(variants))
	for _, v := range variants {
		c := cfg
		c.ML4Ablation = v
		name := v
		if name == "" {
			name = "full"
		}
		out = append(out, A2Variant{Name: name, Report: core.NewSystem(c, core.ML4).Run()})
	}
	return out
}

// FormatA2 renders the ablation reports with variant names prefixed.
func FormatA2(variants []A2Variant) string {
	rows := [][]string{{"variant", "R(goal)", "R(temp)", "invoke", "dataAvail", "privViol"}}
	for _, v := range variants {
		r := v.Report
		rows = append(rows, []string{
			v.Name,
			fmt.Sprintf("%.3f", r.GoalPersistence),
			fmt.Sprintf("%.3f", r.TempPersistence),
			fmt.Sprintf("%.3f", r.InvocationSuccess),
			fmt.Sprintf("%.3f", r.DataAvailability),
			fmt.Sprintf("%d", r.PrivacyViolations),
		})
	}
	return formatTable(rows)
}
