package observatory

import (
	"fmt"
	"strings"
	"time"
)

// DefaultWindows is the R(t) resolution when Options.Windows is zero.
const DefaultWindows = 24

// ZoneTimeline is one zone's windowed availability.
type ZoneTimeline struct {
	Zone int `json:"zone"`
	// R is the zone's availability per window: the fraction of the
	// window during which none of the zone's requirements was in
	// violation (per the journal's violation/recovery transitions).
	R []float64 `json:"r"`
	// Overall is the zone's whole-run availability.
	Overall float64 `json:"overall"`
}

// Timeline is the windowed R(t) view of a run: what a scalar R
// time-averages away.
type Timeline struct {
	// Window is each bucket's width; Windows the bucket count.
	Window  time.Duration `json:"window"`
	Windows int           `json:"windows"`
	// Goal is whole-goal availability per window (1 when no zone held
	// an open violation, time-weighted within the window).
	Goal []float64 `json:"goal"`
	// GoalOverall is the whole-run goal availability — the journal's
	// approximation of Report.GoalPersistence (it differs only by the
	// warmup window, during which monitors do not sample).
	GoalOverall float64 `json:"goal_overall"`
	// PerZone holds each zone's row, ordered by zone index.
	PerZone []ZoneTimeline `json:"per_zone"`
}

// interval is one violated stretch [from, to).
type interval struct {
	from, to time.Duration
}

// buildTimeline computes windowed availability from incident spans.
func buildTimeline(incidents []Incident, zones int, duration time.Duration, windows int) Timeline {
	if windows <= 0 {
		windows = DefaultWindows
	}
	tl := Timeline{Windows: windows}
	if duration <= 0 || zones <= 0 {
		return tl
	}
	tl.Window = duration / time.Duration(windows)
	if tl.Window <= 0 {
		tl.Window = time.Nanosecond
	}

	perZone := make([][]interval, zones)
	var all []interval
	for _, inc := range incidents {
		to := duration
		if inc.Recovered {
			to = inc.RecoveredAt
		}
		iv := interval{from: inc.DetectedAt, to: to}
		if iv.to <= iv.from {
			continue
		}
		if inc.Zone < zones {
			perZone[inc.Zone] = append(perZone[inc.Zone], iv)
		}
		all = append(all, iv)
	}

	tl.Goal = availability(all, duration, windows)
	tl.GoalOverall = overallAvailability(all, duration)
	for z := 0; z < zones; z++ {
		tl.PerZone = append(tl.PerZone, ZoneTimeline{
			Zone:    z,
			R:       availability(perZone[z], duration, windows),
			Overall: overallAvailability(perZone[z], duration),
		})
	}
	return tl
}

// merge coalesces possibly-overlapping violated intervals (two
// requirements of one zone can be violated at once; the violated time
// must not double-count).
func merge(ivs []interval) []interval {
	if len(ivs) <= 1 {
		return ivs
	}
	sorted := append([]interval(nil), ivs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].from < sorted[j-1].from; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	out := sorted[:1]
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.from <= last.to {
			if iv.to > last.to {
				last.to = iv.to
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// availability computes the satisfied fraction of each window.
func availability(ivs []interval, duration time.Duration, windows int) []float64 {
	ivs = merge(ivs)
	out := make([]float64, windows)
	w := duration / time.Duration(windows)
	for i := 0; i < windows; i++ {
		lo := time.Duration(i) * w
		hi := lo + w
		if i == windows-1 {
			hi = duration // absorb the integer-division remainder
		}
		width := hi - lo
		if width <= 0 {
			out[i] = 1
			continue
		}
		var violated time.Duration
		for _, iv := range ivs {
			from, to := iv.from, iv.to
			if from < lo {
				from = lo
			}
			if to > hi {
				to = hi
			}
			if to > from {
				violated += to - from
			}
		}
		out[i] = 1 - float64(violated)/float64(width)
	}
	return out
}

// overallAvailability computes the satisfied fraction of the whole run.
func overallAvailability(ivs []interval, duration time.Duration) float64 {
	if duration <= 0 {
		return 1
	}
	var violated time.Duration
	for _, iv := range merge(ivs) {
		violated += iv.to - iv.from
	}
	return 1 - float64(violated)/float64(duration)
}

// sparkRunes maps availability to a glyph, worst (block) to best (dot).
var sparkRunes = []rune("█▇▆▅▄▃▂·")

// Spark renders one availability row as a sparkline of outage density:
// '·' is a fully-available window, solid blocks are outage. Rendering
// outage (not availability) keeps a healthy run visually quiet.
func Spark(r []float64) string {
	var b strings.Builder
	for _, v := range r {
		switch {
		case v < 0:
			v = 0
		case v > 1:
			v = 1
		}
		idx := int(v * float64(len(sparkRunes)-1))
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// FormatTimeline renders the timeline as aligned rows: the whole-goal
// row first, then any zone that saw at least one degraded window (fully
// healthy zones are summarized, not listed — at city scale 200 quiet
// rows would bury the signal).
func FormatTimeline(tl Timeline) string {
	if tl.Windows == 0 || len(tl.Goal) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "R(t) over %d × %s windows ('·' available, '█' outage):\n",
		tl.Windows, tl.Window.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-8s %s  R=%.3f\n", "goal", Spark(tl.Goal), tl.GoalOverall)
	quiet := 0
	for _, zt := range tl.PerZone {
		if zt.Overall >= 1 {
			quiet++
			continue
		}
		fmt.Fprintf(&b, "  %-8s %s  R=%.3f\n", fmt.Sprintf("zone %d", zt.Zone), Spark(zt.R), zt.Overall)
	}
	if quiet > 0 {
		fmt.Fprintf(&b, "  (%d zone(s) fully available, not shown)\n", quiet)
	}
	return b.String()
}
