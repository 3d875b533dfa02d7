package observatory

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// FormatAnalysis renders the analysis as a human-readable incident
// report: headline, R(t) timeline, then one block per incident in
// detection order.
func FormatAnalysis(a Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: %s, %d zone(s), %d fault event(s)\n",
		a.Duration.Round(time.Millisecond), a.Zones, len(a.Faults))
	fmt.Fprintf(&b, "incidents: %d (%d recovered, %d unresolved)", len(a.Incidents),
		len(a.Incidents)-a.Unresolved, a.Unresolved)
	if a.IslandTransitions > 0 || a.Placements > 0 {
		fmt.Fprintf(&b, "   reactions: %d placement(s), %d island transition(s)",
			a.Placements, a.IslandTransitions)
	}
	b.WriteByte('\n')
	if a.MTTD.Count > 0 {
		fmt.Fprintf(&b, "MTTD p50=%s p99=%s max=%s (over %d fault-attributed incidents)\n",
			a.MTTD.P50.Round(time.Millisecond), a.MTTD.P99.Round(time.Millisecond),
			a.MTTD.Max.Round(time.Millisecond), a.MTTD.Count)
	}
	if a.MTTR.Count > 0 {
		fmt.Fprintf(&b, "MTTR p50=%s p99=%s max=%s (over %d recovered incidents)\n",
			a.MTTR.P50.Round(time.Millisecond), a.MTTR.P99.Round(time.Millisecond),
			a.MTTR.Max.Round(time.Millisecond), a.MTTR.Count)
	}
	if tl := FormatTimeline(a.Timeline); tl != "" {
		b.WriteString(tl)
	}
	for i, inc := range a.Incidents {
		fmt.Fprintf(&b, "#%-3d %s\n", i+1, inc)
		for _, re := range inc.Reactions {
			fmt.Fprintf(&b, "      %8s  %-10s %s\n", re.At.Round(time.Millisecond), re.Kind, re.Detail)
		}
	}
	return b.String()
}

// PublishOverlay publishes the analysis onto bus as trace events: each
// zone's incidents become spans (detection → recovery) on a "zone-N"
// node, with faults as system instants and reactions as instants on
// their zone. Published on the run's own bus while an obs.Collect
// collector is attached, the overlay lands in the same Chrome trace as
// the run's spans, on the same virtual time axis.
func PublishOverlay(a Analysis, bus *obs.Bus) {
	// Publish stamps a zero At with the bus clock, which after a run
	// reads its end; a nanosecond keeps time-zero events at the start.
	at := func(d time.Duration) time.Duration { return max(d, time.Nanosecond) }
	for _, f := range a.Faults {
		bus.Publish(obs.Event{At: at(f.At), Kind: "fault", Detail: f.Detail})
	}
	for _, inc := range a.Incidents {
		node := fmt.Sprintf("zone-%d", inc.Zone)
		dur := a.Duration - inc.DetectedAt
		kind := "incident." + inc.Requirement + ".unresolved"
		if inc.Recovered {
			dur = inc.TTR
			kind = "incident." + inc.Requirement
		}
		if dur <= 0 {
			dur = time.Millisecond
		}
		bus.Publish(obs.Event{At: at(inc.DetectedAt), Dur: dur, Kind: kind, Node: node, Detail: inc.Detect})
		for _, re := range inc.Reactions {
			bus.Publish(obs.Event{At: at(re.At), Kind: "reaction." + re.Kind, Node: node, Detail: re.Detail})
		}
	}
}
