// Package metrics quantifies resilience. The paper's working
// definition — "the persistence of reliable requirements satisfaction
// when facing change" — becomes a measurable quantity here: Persistence
// is the satisfied fraction of a time window given the intervals during
// which a requirement was violated; a LatencyRecorder summarizes
// distributions (mean, percentiles) for timeliness properties; counters
// track delivery availability. Every experiment in the repository
// reports its results through these types.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Interval is the stretch of time [From, To). One with To <= From is
// empty.
type Interval struct {
	From, To time.Duration
}

// Persistence returns the fraction of the window [lo, hi) covered by
// none of the violated intervals. Overlapping intervals count once, and
// the parts of an interval outside the window do not count. An empty
// window has nothing to violate and returns 1.
func Persistence(violated []Interval, lo, hi time.Duration) float64 {
	if hi <= lo {
		return 1
	}
	var in []Interval
	for _, iv := range violated {
		if iv := (Interval{max(iv.From, lo), min(iv.To, hi)}); iv.To > iv.From {
			in = append(in, iv)
		}
	}
	slices.SortFunc(in, func(a, b Interval) int { return cmp.Compare(a.From, b.From) })
	var down time.Duration
	covered := lo // everything before covered is already counted
	for _, iv := range in {
		if iv.To > covered {
			down += iv.To - max(iv.From, covered)
			covered = iv.To
		}
	}
	return 1 - float64(down)/float64(hi-lo)
}

// MeanDuration returns the mean length of the intervals (0 when there
// are none): the mean time to recover when they are recovered outages.
func MeanDuration(ivs []Interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	var total time.Duration
	for _, iv := range ivs {
		total += iv.To - iv.From
	}
	return total / time.Duration(len(ivs))
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
