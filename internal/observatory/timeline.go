package observatory

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// timelineWindows is the R(t) resolution: the bucket count of every
// timeline.
const timelineWindows = 24

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
	// GoalOverall is the whole-run goal availability: the run's
	// Report.GoalPersistence, computed from the same outages.
	GoalOverall float64 `json:"goal_overall"`
	// PerZone holds each zone's row, ordered by zone index.
	PerZone []ZoneTimeline `json:"per_zone"`
}

// buildTimeline computes windowed availability from the run's outages.
func buildTimeline(outages []core.Outage, zones int, duration time.Duration) Timeline {
	tl := Timeline{Windows: timelineWindows}
	if duration <= 0 || zones <= 0 {
		return tl
	}
	tl.Window = duration / timelineWindows
	if tl.Window <= 0 {
		tl.Window = time.Nanosecond
	}

	perZone := make([][]metrics.Interval, zones)
	all := make([]metrics.Interval, 0, len(outages))
	for _, o := range outages {
		perZone[o.Zone] = append(perZone[o.Zone], o.Interval)
		all = append(all, o.Interval)
	}

	tl.Goal = availability(all, duration)
	tl.GoalOverall = metrics.Persistence(all, 0, duration)
	for z := 0; z < zones; z++ {
		tl.PerZone = append(tl.PerZone, ZoneTimeline{
			Zone:    z,
			R:       availability(perZone[z], duration),
			Overall: metrics.Persistence(perZone[z], 0, duration),
		})
	}
	return tl
}

// availability computes the satisfied fraction of each window; the last
// window absorbs the integer-division remainder.
func availability(violated []metrics.Interval, duration time.Duration) []float64 {
	out := make([]float64, timelineWindows)
	w := duration / timelineWindows
	for i := range out {
		lo, hi := time.Duration(i)*w, time.Duration(i+1)*w
		if i == timelineWindows-1 {
			hi = duration
		}
		out[i] = metrics.Persistence(violated, lo, hi)
	}
	return out
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
