package core

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

// TestOutagesAndMTTR: the parser reads back every record measure
// writes, pairs violations with recoveries per zone requirement, and
// the report scores MTTR as the mean over zones of each zone's mean
// temperature outage.
func TestOutagesAndMTTR(t *testing.T) {
	for _, req := range []string{ReqTemperature, ReqFreshness} {
		for _, ok := range []bool{false, true} {
			detail := requirementDetail(12, req, ok, 27.25)
			if z, r, parsed := requirementOf(detail); !parsed || z != 12 || r != req {
				t.Fatalf("requirementOf(%q) = %d, %q, %v", detail, z, r, parsed)
			}
		}
	}

	rec := func(at int, z int, req string, ok bool) RunEvent {
		kind := EventViolation
		if ok {
			kind = EventRecovery
		}
		return RunEvent{At: sec(at), Kind: kind, Detail: requirementDetail(z, req, ok, 24)}
	}
	events := []RunEvent{
		rec(5, 0, ReqTemperature, true), // a recovery with nothing open
		rec(10, 0, ReqTemperature, false),
		rec(15, 0, ReqTemperature, false), // already violated
		{At: sec(18), Kind: EventPlacement, Detail: "leader gw-0 proposes ctrl-0→gw-1"},
		rec(20, 0, ReqTemperature, true),
		rec(30, 1, ReqTemperature, false),
		rec(40, 0, ReqTemperature, false),
		rec(45, 0, ReqTemperature, true),
		rec(50, 1, ReqTemperature, true),
		rec(60, 1, ReqFreshness, false),
		rec(70, 1, ReqTemperature, false), // never recovered
	}
	got := Outages(events, sec(100))
	want := []Outage{
		{Zone: 0, Requirement: ReqTemperature, Interval: metrics.Interval{From: sec(10), To: sec(20)}, Recovered: true, Violation: 1, Recovery: 4},
		{Zone: 1, Requirement: ReqTemperature, Interval: metrics.Interval{From: sec(30), To: sec(50)}, Recovered: true, Violation: 5, Recovery: 8},
		{Zone: 0, Requirement: ReqTemperature, Interval: metrics.Interval{From: sec(40), To: sec(45)}, Recovered: true, Violation: 6, Recovery: 7},
		{Zone: 1, Requirement: ReqFreshness, Interval: metrics.Interval{From: sec(60), To: sec(100)}, Violation: 9, Recovery: len(events)},
		{Zone: 1, Requirement: ReqTemperature, Interval: metrics.Interval{From: sec(70), To: sec(100)}, Violation: 10, Recovery: len(events)},
	}
	if len(got) != len(want) {
		t.Fatalf("Outages = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outage %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	var r Report
	r.score(got, 2, sec(100), nil)
	// Zone 0: (10s + 5s) / 2 = 7.5s; zone 1: 20s, its outage still open
	// at the horizon adding nothing; MTTR = (7.5s + 20s) / 2.
	if r.MTTR != 13750*time.Millisecond {
		t.Fatalf("MTTR = %v, want 13.75s", r.MTTR)
	}
	if r.UnresolvedViolations != 2 || r.AutoRecoveries != 3 || r.ManualInterventions != 0 {
		t.Fatalf("unresolved=%d auto=%d manual=%d, want 2/3/0", r.UnresolvedViolations, r.AutoRecoveries, r.ManualInterventions)
	}
	// Zone 0 is out of band for 15 of 100 seconds, zone 1 for 20 + 30.
	if want := (0.85 + 0.5) / 2; r.TempPersistence != want {
		t.Fatalf("R(temp) = %v, want %v", r.TempPersistence, want)
	}
	// Some requirement is violated over [10,20) ∪ [30,50) ∪ [60,100):
	// 70 of 100 seconds.
	down, span := 70.0, 100.0
	if want := 1 - down/span; r.GoalPersistence != want {
		t.Fatalf("R(goal) = %v, want %v", r.GoalPersistence, want)
	}
}
