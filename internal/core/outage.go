package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Requirement classes a violation or recovery record names. Every zone
// has one requirement of each class.
const (
	ReqTemperature = "temperature"
	ReqFreshness   = "freshness"
)

// requirementDetail is the journal detail of zone z's requirement req
// turning violated (ok false) or satisfied again (ok true); temp is the
// zone's temperature, shown on temperature records.
func requirementDetail(z int, req string, ok bool, temp float64) string {
	switch {
	case req == ReqTemperature && ok:
		return fmt.Sprintf("zone %d temperature back in band (%.1f°)", z, temp)
	case req == ReqTemperature:
		return fmt.Sprintf("zone %d temperature out of band (%.1f°)", z, temp)
	case ok:
		return fmt.Sprintf("zone %d data fresh at controller again", z)
	default:
		return fmt.Sprintf("zone %d data stale at controller", z)
	}
}

// requirementOf inverts requirementDetail: the zone and requirement
// class a violation or recovery detail names.
func requirementOf(detail string) (zone int, req string, ok bool) {
	rest, found := strings.CutPrefix(detail, "zone ")
	if !found {
		return 0, "", false
	}
	sp := strings.IndexByte(rest, ' ')
	if sp <= 0 {
		return 0, "", false
	}
	zone, err := strconv.Atoi(rest[:sp])
	if err != nil {
		return 0, "", false
	}
	switch {
	case strings.Contains(rest[sp:], "temperature"):
		return zone, ReqTemperature, true
	case strings.Contains(rest[sp:], "data"):
		return zone, ReqFreshness, true
	default:
		return 0, "", false
	}
}

// Outage is one violation episode of a zone requirement as the journal
// records it: the Interval from the violation record to the recovery
// record, or to the horizon while unresolved.
type Outage struct {
	Zone        int
	Requirement string
	metrics.Interval
	Recovered bool
	// Violation and Recovery index the two records in the journal;
	// Recovery is len(events) while the outage is unresolved.
	Violation, Recovery int
}

// Outages pairs a journal's violation and recovery records into
// outages, in detection order. An outage still open at the end of the
// journal runs to horizon. A recovery of a requirement that is not
// violated, and a second violation of one that is, are ignored. Every
// outcome a Report scores — R, MTTR, recoveries and unresolved
// violations — is derived from this list, and so is the observatory's
// explanation of the same run.
func Outages(events []RunEvent, horizon time.Duration) []Outage {
	type key struct {
		zone int
		req  string
	}
	var out []Outage
	open := make(map[key]int) // → index into out
	for i, ev := range events {
		if ev.Kind != EventViolation && ev.Kind != EventRecovery {
			continue
		}
		zone, req, ok := requirementOf(ev.Detail)
		if !ok {
			continue
		}
		k := key{zone, req}
		idx, isOpen := open[k]
		switch {
		case ev.Kind == EventViolation && !isOpen:
			open[k] = len(out)
			out = append(out, Outage{
				Zone: zone, Requirement: req,
				Interval:  metrics.Interval{From: ev.At, To: horizon},
				Violation: i, Recovery: len(events),
			})
		case ev.Kind == EventRecovery && isOpen:
			o := &out[idx]
			o.To, o.Recovered, o.Recovery = ev.At, true, i
			delete(open, k)
		}
	}
	return out
}

// coolDownWindow is the physical settling time after a repair: an
// outage that ends within this window after an external recovery event
// is attributed to the repair (a manual intervention), not to the
// architecture's own adaptation.
const coolDownWindow = 90 * time.Second

// score fills r's outcome fields from a run's outages over [0, end]:
//   - GoalPersistence, the fraction of the run with no requirement
//     violated;
//   - TempPersistence, the mean over zones of the fraction with the
//     temperature requirement satisfied;
//   - MTTR, the mean over zones of each zone's mean temperature-outage
//     duration;
//   - the manual/automatic split of recovered temperature outages
//     against the external repairs;
//   - UnresolvedViolations, the outages of either requirement still open
//     at the horizon.
func (r *Report) score(outages []Outage, zones int, end time.Duration, repairs []time.Duration) {
	var goal []metrics.Interval
	temp := make([][]Outage, zones)
	for _, o := range outages {
		goal = append(goal, o.Interval)
		if !o.Recovered {
			r.UnresolvedViolations++
		}
		if o.Requirement == ReqTemperature {
			temp[o.Zone] = append(temp[o.Zone], o)
		}
	}
	r.GoalPersistence = metrics.Persistence(goal, 0, end)

	var persistSum float64
	var mttrSum time.Duration
	mttrCount := 0
	for _, zone := range temp {
		violated := make([]metrics.Interval, len(zone))
		var recovered []metrics.Interval
		for i, o := range zone {
			violated[i] = o.Interval
			if o.Recovered {
				recovered = append(recovered, o.Interval)
			}
		}
		persistSum += metrics.Persistence(violated, 0, end)
		if len(recovered) > 0 {
			mttrSum += metrics.MeanDuration(recovered)
			mttrCount++
		}
		manual, auto := attributeOutages(zone, repairs)
		r.ManualInterventions += manual
		r.AutoRecoveries += auto
	}
	r.TempPersistence = persistSum / float64(zones)
	if mttrCount > 0 {
		r.MTTR = mttrSum / time.Duration(mttrCount)
	}
}

// attributeOutages classifies each recovered outage as manually
// resolved (its end follows an external repair within the settling
// window) or automatically resolved by the architecture.
func attributeOutages(outages []Outage, repairs []time.Duration) (manual, auto int) {
	for _, o := range outages {
		if !o.Recovered {
			continue
		}
		isManual := false
		for _, rep := range repairs {
			if o.To >= rep && o.To-rep <= coolDownWindow {
				isManual = true
				break
			}
		}
		if isManual {
			manual++
		} else {
			auto++
		}
	}
	return manual, auto
}
