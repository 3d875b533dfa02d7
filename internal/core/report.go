package core

import (
	"fmt"
	"strings"
	"time"
)

// Report is the measured counterpart of one row of the paper's
// Tables 1 and 2: the same scenario and disruption schedule, scored
// along each disruption vector.
type Report struct {
	Archetype Archetype

	// GoalPersistence is the headline resilience number: the paper's
	// "persistence of reliable requirements satisfaction when facing
	// change", as the fraction of the run [0, Duration] during which no
	// requirement was violated: every zone's temperature and freshness
	// requirements held at once.
	// Like every outcome field below it is scored from the journal's
	// violation and recovery records (Outages); a run whose horizon
	// ends inside the warmup window sampled nothing and scores 0.
	GoalPersistence float64
	// TempPersistence is the mean per-zone temperature-band
	// satisfaction (ground truth) over the same window.
	TempPersistence float64

	// Pervasiveness: fraction of time a zone's sensors had at least
	// one admissible, reachable collector (infrastructure as utility).
	Pervasiveness float64
	// InvocationSuccess: fraction of control periods in which the
	// zone's controller function ran with fresh data (deviceless).
	InvocationSuccess float64
	// ValidationCoverage: fraction of (requirement × assurance-kind)
	// pairs carrying a formal artifact — runtime monitor or
	// design-time model-checking verdict.
	ValidationCoverage float64
	// DesignChecksPassed reports whether all executed design-time
	// checks verified.
	DesignChecksPassed bool
	// MTTR is the mean time to bring a zone's temperature back into
	// its band: each zone's mean over its recovered temperature outages,
	// averaged over the zones that had one. Freshness outages do not
	// count. It is not the observatory's incident MTTR (Analysis.MTTR),
	// which covers both requirements and reports percentiles.
	// ManualInterventions counts temperature outages resolved only by
	// external repair, AutoRecoveries those the architecture resolved
	// itself (operations automation).
	MTTR                time.Duration
	ManualInterventions int
	AutoRecoveries      int
	// DataAvailability: fraction of (zone × consumer) checks where
	// the intended consumer had fresh data; StalenessP95 the 95th
	// percentile age of delivered data; PrivacyViolations the number
	// of items observed at a node policy forbids (data flows and
	// governance).
	DataAvailability  float64
	StalenessP95      time.Duration
	PrivacyViolations int

	// RuntimeChecks counts models@runtime re-verifications the ML4
	// leader performed; RuntimeAlerts how many found the failure
	// assumption no longer satisfiable by the live membership.
	RuntimeChecks int
	RuntimeAlerts int

	// UnresolvedViolations counts requirement monitors (temperature
	// band, freshness; two per zone) still in violation when the run
	// ended: the system never recovered them. The chaos oracle treats
	// any non-zero value as a non-recovery failure.
	UnresolvedViolations int

	// Traffic cost of the architecture.
	Messages int
	Bytes    int

	// Replication traffic: totals over every store sync link (zero for
	// architectures without replicated stores). SyncBytes is the
	// bytes-on-wire figure the bench gate tracks.
	SyncFrames  int
	SyncEntries int
	SyncBytes   int
	SyncAcks    int
}

// header returns the table header rows for Format.
func header() []string {
	return []string{
		"archetype", "R(goal)", "R(temp)", "pervasive", "invoke", "validate",
		"MTTR", "manual", "auto", "dataAvail", "staleP95", "privViol", "msgs",
	}
}

// row formats one report as table cells.
func (r Report) row() []string {
	return []string{
		r.Archetype.String(),
		fmt.Sprintf("%.3f", r.GoalPersistence),
		fmt.Sprintf("%.3f", r.TempPersistence),
		fmt.Sprintf("%.3f", r.Pervasiveness),
		fmt.Sprintf("%.3f", r.InvocationSuccess),
		fmt.Sprintf("%.2f", r.ValidationCoverage),
		r.MTTR.Round(time.Second).String(),
		fmt.Sprintf("%d", r.ManualInterventions),
		fmt.Sprintf("%d", r.AutoRecoveries),
		fmt.Sprintf("%.3f", r.DataAvailability),
		r.StalenessP95.Round(time.Millisecond).String(),
		fmt.Sprintf("%d", r.PrivacyViolations),
		fmt.Sprintf("%d", r.Messages),
	}
}

// String renders the report as a single table row with header.
func (r Report) String() string {
	return FormatReports([]Report{r})
}

// FormatReports renders reports as an aligned text table — the
// measured Table 1/2.
func FormatReports(reports []Report) string {
	rows := [][]string{header()}
	for _, r := range reports {
		rows = append(rows, r.row())
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for ri, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// RunMatrix builds and runs the scenario at each archetype — the
// measured reproduction of Tables 1 and 2.
func RunMatrix(cfg ScenarioConfig, archetypes ...Archetype) []Report {
	if len(archetypes) == 0 {
		archetypes = AllArchetypes()
	}
	out := make([]Report, 0, len(archetypes))
	for _, a := range archetypes {
		out = append(out, NewSystem(cfg, a).Run())
	}
	return out
}
