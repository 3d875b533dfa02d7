// Package observatory turns a run's journal into an explanation. The
// paper treats resilience as a property to be continuously monitored —
// "the persistence of reliable requirements satisfaction when facing
// change" — but a scalar R collapses *when* availability was lost and
// *how long* detection, reaction and recovery took. This package is the
// read-only analysis layer that recovers that structure from any
// core.System run:
//
//   - Incident records: each requirement violation becomes an incident
//     linking the fault that (most plausibly) caused it, the moment the
//     monitors detected it, the reactions the architecture took while it
//     was open (placements, failovers, island transitions), and the
//     recovery — with per-incident MTTD (fault → detection) and TTR
//     (detection → recovery).
//   - R(t) timelines: per-zone and whole-goal availability over fixed
//     windows, so a run renders as a timeline instead of one number.
//   - A flight recorder (see flight.go): a bounded ring of recent
//     journal events and obs spans that dumps a structured artifact when
//     the chaos oracle fires.
//
// Everything here only *reads* journals and bus events; attaching the
// observatory never changes a run's behavior, so pinned journal hashes
// and corpus replays stay bit-identical (enforced by tests).
package observatory

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Incident is one violation episode of a single zone requirement: the
// span from first detection to recovery, annotated with the fault it is
// attributed to and the reactions taken while it was open.
type Incident struct {
	// Zone and Requirement identify the violated monitor (Requirement
	// is core.ReqTemperature or core.ReqFreshness).
	Zone        int    `json:"zone"`
	Requirement string `json:"requirement"`

	// FaultAt/Fault describe the most recent injected fault at or
	// before detection — the causal attribution the journal's span
	// parenting uses. HasFault is false when the violation preceded any
	// fault (e.g. environment shocks), leaving MTTD undefined.
	HasFault bool          `json:"has_fault"`
	FaultAt  time.Duration `json:"fault_at,omitempty"`
	Fault    string        `json:"fault,omitempty"`

	// DetectedAt is when the monitors first saw the violation; Detect
	// is the journal detail.
	DetectedAt time.Duration `json:"detected_at"`
	Detect     string        `json:"detect"`

	// Reactions are the placement/island journal events recorded while
	// the incident was open — what the architecture did about it.
	Reactions []core.RunEvent `json:"reactions,omitempty"`

	// Recovered reports whether the requirement was satisfied again
	// before the run ended; RecoveredAt is when.
	Recovered   bool          `json:"recovered"`
	RecoveredAt time.Duration `json:"recovered_at,omitempty"`

	// MTTD is detection latency (FaultAt → DetectedAt; zero without an
	// attributed fault). TTR is repair time (DetectedAt → RecoveredAt;
	// zero while unresolved).
	MTTD time.Duration `json:"mttd,omitempty"`
	TTR  time.Duration `json:"ttr,omitempty"`
}

// String renders the incident as one journal-style line.
func (in Incident) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "zone %d %s:", in.Zone, in.Requirement)
	if in.HasFault {
		fmt.Fprintf(&b, " fault %s (%s)", in.FaultAt.Round(time.Millisecond), in.Fault)
		fmt.Fprintf(&b, " → detected +%s", in.MTTD.Round(time.Millisecond))
	} else {
		fmt.Fprintf(&b, " detected %s (no prior fault)", in.DetectedAt.Round(time.Millisecond))
	}
	if len(in.Reactions) > 0 {
		fmt.Fprintf(&b, " → %d reaction(s)", len(in.Reactions))
	}
	if in.Recovered {
		fmt.Fprintf(&b, " → recovered +%s", in.TTR.Round(time.Millisecond))
	} else {
		b.WriteString(" → UNRESOLVED at end of run")
	}
	return b.String()
}

// DurationStats summarizes a duration distribution.
type DurationStats struct {
	Count int           `json:"count"`
	P50   time.Duration `json:"p50"`
	P99   time.Duration `json:"p99"`
	Mean  time.Duration `json:"mean"`
	Max   time.Duration `json:"max"`
}

func statsOf(r *metrics.LatencyRecorder) DurationStats {
	return DurationStats{
		Count: r.Count(),
		P50:   r.Percentile(50),
		P99:   r.Percentile(99),
		Mean:  r.Mean(),
		Max:   r.Max(),
	}
}

// Options parameterizes Analyze. The zero value infers everything from
// the journal.
type Options struct {
	// Duration is the run horizon. Zero infers the last event time.
	Duration time.Duration
	// Zones is the zone count. Zero infers max seen zone + 1.
	Zones int
}

// Analysis is the derived explanation of one run.
type Analysis struct {
	Duration time.Duration `json:"duration"`
	Zones    int           `json:"zones"`

	// Faults lists every injected fault event.
	Faults []core.RunEvent `json:"faults,omitempty"`
	// Incidents in detection order.
	Incidents []Incident `json:"incidents"`
	// Unresolved counts incidents still open at the end of the run —
	// the journal-derived counterpart of Report.UnresolvedViolations.
	Unresolved int `json:"unresolved"`

	// MTTD aggregates detection latency over fault-attributed
	// incidents; MTTR aggregates repair time over recovered incidents.
	MTTD DurationStats `json:"mttd"`
	MTTR DurationStats `json:"mttr"`

	// Timeline is the windowed R(t) view.
	Timeline Timeline `json:"timeline"`

	// IslandTransitions counts island enter/rejoin events (hardened
	// runs only); Placements counts replans applied.
	IslandTransitions int `json:"island_transitions,omitempty"`
	Placements        int `json:"placements,omitempty"`
}

// Analyze derives incidents and timelines from a run journal. It is a
// pure function of the events: calling it (or not) cannot affect the
// run that produced them. Incidents are the journal's core.Outages, so
// the analysis and the run's Report score the same episodes; given the
// run's Duration, the timeline scores them over the same window, even
// when a live run's last tick stamped records past it.
func Analyze(events []core.RunEvent, opts Options) Analysis {
	a := Analysis{Duration: opts.Duration, Zones: opts.Zones}
	if a.Duration == 0 {
		for _, ev := range events {
			a.Duration = max(a.Duration, ev.At)
		}
	}
	outages := core.Outages(events, a.Duration)
	var open []int // incidents detected so far and not yet recovered
	var lastFault *core.RunEvent

	for i, ev := range events {
		switch ev.Kind {
		case core.EventFault:
			a.Faults = append(a.Faults, ev)
			lastFault = &a.Faults[len(a.Faults)-1]
		case core.EventPlacement, core.EventIsland:
			if ev.Kind == core.EventIsland {
				a.IslandTransitions++
			} else {
				a.Placements++
			}
			// A reaction belongs to every incident open while it fired.
			open = slices.DeleteFunc(open, func(k int) bool { return outages[k].Recovery < i })
			for _, k := range open {
				a.Incidents[k].Reactions = append(a.Incidents[k].Reactions, ev)
			}
		}
		// Outages come in detection order: the next one to become an
		// incident is detected by this event or a later one.
		n := len(a.Incidents)
		if n == len(outages) || outages[n].Violation != i {
			continue
		}
		o := outages[n]
		a.Zones = max(a.Zones, o.Zone+1)
		inc := Incident{
			Zone: o.Zone, Requirement: o.Requirement,
			DetectedAt: o.From, Detect: ev.Detail,
			Recovered: o.Recovered,
		}
		if lastFault != nil {
			inc.HasFault = true
			inc.FaultAt = lastFault.At
			inc.Fault = lastFault.Detail
			inc.MTTD = o.From - lastFault.At
		}
		if o.Recovered {
			inc.RecoveredAt = o.To
			inc.TTR = o.To - o.From
		} else {
			a.Unresolved++
		}
		open = append(open, n)
		a.Incidents = append(a.Incidents, inc)
	}

	mttd := &metrics.LatencyRecorder{}
	mttr := &metrics.LatencyRecorder{}
	for _, inc := range a.Incidents {
		if inc.HasFault {
			mttd.Record(inc.MTTD)
		}
		if inc.Recovered {
			mttr.Record(inc.TTR)
		}
	}
	a.MTTD = statsOf(mttd)
	a.MTTR = statsOf(mttr)
	a.Timeline = buildTimeline(outages, a.Zones, a.Duration)
	return a
}
