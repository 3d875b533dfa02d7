package observatory

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// journal builds a synthetic run journal.
func journal(events ...core.RunEvent) []core.RunEvent { return events }

func ev(at time.Duration, kind, detail string) core.RunEvent {
	return core.RunEvent{At: at, Kind: kind, Detail: detail}
}

func TestAnalyzeEmptyJournal(t *testing.T) {
	a := Analyze(nil, Options{Duration: time.Minute, Zones: 2})
	if len(a.Incidents) != 0 || a.Unresolved != 0 {
		t.Fatalf("empty journal produced incidents: %+v", a)
	}
	if a.Timeline.GoalOverall != 1 {
		t.Fatalf("GoalOverall = %v, want 1", a.Timeline.GoalOverall)
	}
	for _, zt := range a.Timeline.PerZone {
		if zt.Overall != 1 {
			t.Fatalf("zone %d overall = %v, want 1", zt.Zone, zt.Overall)
		}
	}
}

func TestAnalyzeIncidentLifecycle(t *testing.T) {
	j := journal(
		ev(10*time.Second, core.EventFault, "crash gw-0"),
		ev(14*time.Second, core.EventViolation, "zone 0 data stale at controller"),
		ev(16*time.Second, core.EventPlacement, "leader cl-0 proposes ctrl-0→cl-1"),
		ev(20*time.Second, core.EventRecovery, "zone 0 data fresh at controller again"),
		ev(30*time.Second, core.EventViolation, "zone 1 temperature out of band (27.3°)"),
	)
	a := Analyze(j, Options{Duration: time.Minute, Zones: 2})
	if len(a.Incidents) != 2 {
		t.Fatalf("incidents = %d, want 2", len(a.Incidents))
	}

	first := a.Incidents[0]
	if first.Zone != 0 || first.Requirement != core.ReqFreshness {
		t.Fatalf("first incident = %+v", first)
	}
	if !first.HasFault || first.MTTD != 4*time.Second {
		t.Fatalf("MTTD = %v (hasFault=%v), want 4s", first.MTTD, first.HasFault)
	}
	if !first.Recovered || first.TTR != 6*time.Second {
		t.Fatalf("TTR = %v (recovered=%v), want 6s", first.TTR, first.Recovered)
	}
	if len(first.Reactions) != 1 || first.Reactions[0].Kind != core.EventPlacement {
		t.Fatalf("reactions = %+v", first.Reactions)
	}

	second := a.Incidents[1]
	if second.Zone != 1 || second.Requirement != core.ReqTemperature {
		t.Fatalf("second incident = %+v", second)
	}
	if second.Recovered {
		t.Fatal("second incident should be unresolved")
	}
	if a.Unresolved != 1 {
		t.Fatalf("unresolved = %d, want 1", a.Unresolved)
	}
	if a.MTTD.Count != 2 || a.MTTR.Count != 1 {
		t.Fatalf("stats counts: MTTD=%d MTTR=%d", a.MTTD.Count, a.MTTR.Count)
	}
	if a.MTTR.P50 != 6*time.Second || a.MTTR.Max != 6*time.Second {
		t.Fatalf("MTTR stats = %+v", a.MTTR)
	}
}

func TestAnalyzeReactionOnlyAttachesWhileOpen(t *testing.T) {
	j := journal(
		ev(5*time.Second, core.EventPlacement, "leader gw-0 proposes ctrl-0→gw-0"),
		ev(10*time.Second, core.EventViolation, "zone 0 temperature out of band (28.0°)"),
		ev(20*time.Second, core.EventRecovery, "zone 0 temperature back in band (24.0°)"),
		ev(25*time.Second, core.EventIsland, "gw-1 enters island mode: no quorum contact for 6s"),
	)
	a := Analyze(j, Options{Duration: 30 * time.Second, Zones: 1})
	if len(a.Incidents) != 1 {
		t.Fatalf("incidents = %d", len(a.Incidents))
	}
	if len(a.Incidents[0].Reactions) != 0 {
		t.Fatalf("reactions outside the open window attached: %+v", a.Incidents[0].Reactions)
	}
	if a.Placements != 1 || a.IslandTransitions != 1 {
		t.Fatalf("placements=%d islands=%d", a.Placements, a.IslandTransitions)
	}
}

func TestAnalyzeInfersZonesAndDuration(t *testing.T) {
	j := journal(
		ev(10*time.Second, core.EventViolation, "zone 3 temperature out of band (28.0°)"),
		ev(40*time.Second, core.EventRecovery, "zone 3 temperature back in band (24.0°)"),
	)
	a := Analyze(j, Options{})
	if a.Zones != 4 {
		t.Fatalf("zones = %d, want 4 (inferred)", a.Zones)
	}
	if a.Duration != 40*time.Second {
		t.Fatalf("duration = %v, want 40s (inferred)", a.Duration)
	}
}

// A given Duration is the horizon even when records run past it, as a
// live run's late last tick stamps them: R is scored over [0, Duration],
// the window the run's Report scores.
func TestAnalyzeKeepsGivenDuration(t *testing.T) {
	j := journal(
		ev(30*time.Second, core.EventViolation, "zone 0 temperature out of band (28.0°)"),
		ev(70*time.Second, core.EventRecovery, "zone 0 temperature back in band (24.0°)"),
	)
	a := Analyze(j, Options{Duration: time.Minute, Zones: 1})
	if a.Duration != time.Minute {
		t.Fatalf("duration = %v, want 1m (given)", a.Duration)
	}
	if a.Timeline.GoalOverall != 0.5 {
		t.Fatalf("overall = %v, want 0.5", a.Timeline.GoalOverall)
	}
}

func TestAnalyzeRecoveryWithoutViolationIgnored(t *testing.T) {
	j := journal(
		ev(10*time.Second, core.EventRecovery, "zone 0 temperature back in band (24.0°)"),
		ev(11*time.Second, core.EventViolation, "not a zone detail"),
	)
	a := Analyze(j, Options{Duration: time.Minute, Zones: 1})
	if len(a.Incidents) != 0 {
		t.Fatalf("incidents = %+v, want none", a.Incidents)
	}
}

// TestParseRequirement: an incident names the zone and requirement its
// violation record names, and a violation detail core never writes
// makes no incident.
func TestParseRequirement(t *testing.T) {
	cases := []struct {
		detail string
		zone   int
		req    string
		ok     bool
	}{
		{"zone 0 temperature out of band (31.2°)", 0, core.ReqTemperature, true},
		{"zone 12 data stale at controller", 12, core.ReqFreshness, true},
		{"item k observed at cloud (origin campus)", 0, "", false},
		{"zone x temperature out of band", 0, "", false},
		{"zone 4", 0, "", false},
	}
	for _, c := range cases {
		a := Analyze(journal(ev(time.Second, core.EventViolation, c.detail)), Options{Duration: time.Minute})
		if got := len(a.Incidents) == 1; got != c.ok {
			t.Errorf("%q: %d incident(s), want ok=%v", c.detail, len(a.Incidents), c.ok)
			continue
		}
		if c.ok && (a.Incidents[0].Zone != c.zone || a.Incidents[0].Requirement != c.req) {
			t.Errorf("%q: incident %d/%s, want %d/%s", c.detail,
				a.Incidents[0].Zone, a.Incidents[0].Requirement, c.zone, c.req)
		}
	}
}

func TestTimelineWindowsAccountOutage(t *testing.T) {
	// One zone violated for the middle half of a 48s run: 2 s windows,
	// the first and last six fully available, the middle twelve not.
	j := journal(
		ev(12*time.Second, core.EventViolation, "zone 0 temperature out of band (28.0°)"),
		ev(36*time.Second, core.EventRecovery, "zone 0 temperature back in band (24.0°)"),
	)
	a := Analyze(j, Options{Duration: 48 * time.Second, Zones: 1})
	want := make([]float64, 24)
	for i := range want {
		if i < 6 || i >= 18 {
			want[i] = 1
		}
	}
	if len(a.Timeline.Goal) != len(want) {
		t.Fatalf("goal windows = %v, want %v", a.Timeline.Goal, want)
	}
	for i, r := range a.Timeline.Goal {
		if r != want[i] {
			t.Fatalf("goal windows = %v, want %v", a.Timeline.Goal, want)
		}
	}
	if a.Timeline.GoalOverall != 0.5 {
		t.Fatalf("overall = %v, want 0.5", a.Timeline.GoalOverall)
	}
	if a.Timeline.PerZone[0].Overall != 0.5 {
		t.Fatalf("zone overall = %v, want 0.5", a.Timeline.PerZone[0].Overall)
	}
}

func TestTimelineOverlappingRequirementsNoDoubleCount(t *testing.T) {
	// Temperature and freshness of the same zone violated over
	// overlapping spans: violated time is the union, not the sum, both
	// over the run and in the 1 s windows it spans.
	j := journal(
		ev(8*time.Second, core.EventViolation, "zone 0 temperature out of band (28.0°)"),
		ev(12*time.Second, core.EventViolation, "zone 0 data stale at controller"),
		ev(16*time.Second, core.EventRecovery, "zone 0 temperature back in band (24.0°)"),
		ev(20*time.Second, core.EventRecovery, "zone 0 data fresh at controller again"),
	)
	a := Analyze(j, Options{Duration: 24 * time.Second, Zones: 1})
	want := 1 - 12.0/24.0
	if got := a.Timeline.GoalOverall; got != want {
		t.Fatalf("overall = %v, want %v", got, want)
	}
	for i, r := range a.Timeline.Goal {
		w := 1.0
		if i >= 8 && i < 20 {
			w = 0
		}
		if r != w {
			t.Fatalf("goal window %d = %v, want %v", i, r, w)
		}
	}
}

func TestSparkAndFormat(t *testing.T) {
	s := Spark([]float64{0, 0.5, 1})
	if len([]rune(s)) != 3 {
		t.Fatalf("spark = %q", s)
	}
	if []rune(s)[0] != '█' || []rune(s)[2] != '·' {
		t.Fatalf("spark endpoints = %q", s)
	}

	j := journal(
		ev(10*time.Second, core.EventFault, "crash gw-0"),
		ev(14*time.Second, core.EventViolation, "zone 0 data stale at controller"),
		ev(20*time.Second, core.EventRecovery, "zone 0 data fresh at controller again"),
	)
	a := Analyze(j, Options{Duration: time.Minute, Zones: 2})
	out := FormatAnalysis(a)
	for _, want := range []string{"incidents: 1 (1 recovered, 0 unresolved)", "MTTD", "MTTR", "zone 0", "R(t)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// One fully-quiet zone must be summarized, not listed.
	if !strings.Contains(out, "1 zone(s) fully available") {
		t.Fatalf("quiet-zone summary missing:\n%s", out)
	}
}

func TestIncidentStringUnresolved(t *testing.T) {
	inc := Incident{Zone: 2, Requirement: core.ReqTemperature, DetectedAt: 5 * time.Second}
	if s := inc.String(); !strings.Contains(s, "UNRESOLVED") || !strings.Contains(s, "no prior fault") {
		t.Fatalf("incident string = %q", s)
	}
}
