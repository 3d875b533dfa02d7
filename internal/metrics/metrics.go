// Package metrics quantifies resilience. The paper's working
// definition — "the persistence of reliable requirements satisfaction
// when facing change" — becomes a measurable quantity here: a
// SatisfactionTrace samples whether requirements hold over time and
// reports persistence (time-weighted satisfied fraction), outage ends
// and MTTR; a LatencyRecorder summarizes distributions
// (mean, percentiles) for timeliness properties; counters track
// delivery availability. Every experiment in the repository reports its
// results through these types.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample is one satisfaction observation.
type sample struct {
	at time.Duration
	ok bool
}

// SatisfactionTrace records requirement satisfaction over time. Record
// observations in nondecreasing time order.
type SatisfactionTrace struct {
	samples []sample
}

// Record appends one observation.
func (tr *SatisfactionTrace) Record(at time.Duration, ok bool) {
	tr.samples = append(tr.samples, sample{at: at, ok: ok})
}

// TimeWeightedPersistence returns the fraction of the interval [first
// sample, end] during which the requirement was satisfied, holding each
// observation's value until the next observation.
func (tr *SatisfactionTrace) TimeWeightedPersistence(end time.Duration) float64 {
	if len(tr.samples) == 0 {
		return 0
	}
	start := tr.samples[0].at
	if end <= start {
		return 0
	}
	var satisfied time.Duration
	for i, s := range tr.samples {
		next := end
		if i+1 < len(tr.samples) {
			next = tr.samples[i+1].at
		}
		if next > end {
			next = end
		}
		if s.ok && next > s.at {
			satisfied += next - s.at
		}
	}
	return float64(satisfied) / float64(end-start)
}

// MTTR returns the mean duration of completed outages (unsatisfied
// periods that ended with a satisfied observation). A trace that starts
// unsatisfied starts in an outage.
func (tr *SatisfactionTrace) MTTR() time.Duration {
	var total time.Duration
	count := 0
	var outageStart time.Duration
	inOutage := false
	prev := true
	for _, s := range tr.samples {
		switch {
		case prev && !s.ok:
			inOutage = true
			outageStart = s.at
		case inOutage && s.ok:
			total += s.at - outageStart
			count++
			inOutage = false
		}
		prev = s.ok
	}
	if count == 0 {
		return 0
	}
	return total / time.Duration(count)
}

// OutageEnds returns the times at which completed outages ended (the
// first satisfied observation after each unsatisfied stretch).
func (tr *SatisfactionTrace) OutageEnds() []time.Duration {
	var out []time.Duration
	inOutage := false
	prev := true
	for _, s := range tr.samples {
		switch {
		case prev && !s.ok:
			inOutage = true
		case inOutage && s.ok:
			out = append(out, s.at)
			inOutage = false
		}
		prev = s.ok
	}
	return out
}

// LatencyRecorder accumulates a latency distribution.
type LatencyRecorder struct {
	samples []time.Duration
	sorted  bool
}

// Record appends one latency sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Mean returns the average latency (0 when empty).
func (r *LatencyRecorder) Mean() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range r.samples {
		total += s
	}
	return total / time.Duration(len(r.samples))
}

// Percentile returns the p-th percentile (p in (0,100]); it uses the
// nearest-rank method. Returns 0 when empty.
func (r *LatencyRecorder) Percentile(p float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(r.samples) {
		rank = len(r.samples)
	}
	return r.samples[rank-1]
}

// Max returns the largest sample.
func (r *LatencyRecorder) Max() time.Duration {
	var max time.Duration
	for _, s := range r.samples {
		if s > max {
			max = s
		}
	}
	return max
}

// Ratio is a success/total availability counter.
type Ratio struct {
	Success int
	Total   int
}

// RecordOutcome adds one trial.
func (r *Ratio) RecordOutcome(ok bool) {
	r.Total++
	if ok {
		r.Success++
	}
}

// Value returns Success/Total (0 when empty).
func (r Ratio) Value() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Success) / float64(r.Total)
}

// String formats the ratio as "97.5% (39/40)".
func (r Ratio) String() string {
	return fmt.Sprintf("%.1f%% (%d/%d)", r.Value()*100, r.Success, r.Total)
}
