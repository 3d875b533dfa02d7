package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func iv(from, to int) Interval { return Interval{From: sec(from), To: sec(to)} }

func TestPersistenceEmpty(t *testing.T) {
	if got := Persistence(nil, 0, sec(10)); got != 1 {
		t.Fatalf("no violations: R = %v, want 1", got)
	}
	if got := Persistence([]Interval{iv(12, 20), iv(5, 5)}, 0, sec(10)); got != 1 {
		t.Fatalf("violations outside the window or empty: R = %v, want 1", got)
	}
}

func TestTimeWeightedPersistence(t *testing.T) {
	// Violated during [10,30) of [0,60) → R = 40/60.
	down, width := 20.0, 60.0
	want := 1 - down/width
	if got := Persistence([]Interval{iv(10, 30)}, 0, sec(60)); got != want {
		t.Fatalf("R = %v, want %v", got, want)
	}
}

func TestTimeWeightedPersistenceEndBeforeStart(t *testing.T) {
	if got := Persistence([]Interval{iv(0, 20)}, sec(10), sec(5)); got != 1 {
		t.Fatalf("window ending before it starts: R = %v, want 1", got)
	}
}

// A window that ends where the first violation starts holds none of it:
// intervals are half-open.
func TestTimeWeightedPersistenceEndAtFirstSample(t *testing.T) {
	if got := Persistence([]Interval{iv(10, 20)}, 0, sec(10)); got != 1 {
		t.Fatalf("R = %v, want 1", got)
	}
	if got := Persistence([]Interval{iv(10, 20)}, sec(10), sec(10)); got != 1 {
		t.Fatalf("zero-width window: R = %v, want 1", got)
	}
}

func TestTraceStartingUnsatisfiedCountsOutage(t *testing.T) {
	if got := Persistence([]Interval{iv(0, 5)}, 0, sec(10)); got != 0.5 {
		t.Fatalf("R = %v, want 0.5", got)
	}
}

// An outage still open at the horizon runs past the window; only its
// part inside the window counts.
func TestOpenOutage(t *testing.T) {
	if got := Persistence([]Interval{iv(10, 100)}, 0, sec(20)); got != 0.5 {
		t.Fatalf("R = %v, want 0.5", got)
	}
	if got := Persistence([]Interval{iv(0, 100)}, sec(50), sec(60)); got != 0 {
		t.Fatalf("window inside the outage: R = %v, want 0", got)
	}
}

func TestMeanDuration(t *testing.T) {
	if got := MeanDuration(nil); got != 0 {
		t.Fatalf("no intervals: mean = %v, want 0", got)
	}
	if got := MeanDuration([]Interval{iv(10, 20), iv(30, 35)}); got != 7500*time.Millisecond {
		t.Fatalf("mean = %v, want 7.5s", got)
	}
}

// Property: persistence is always in [0,1] and equals the brute-force
// fraction of unviolated seconds, however the intervals overlap.
func TestPersistenceBoundsProperty(t *testing.T) {
	prop := func(spans [][2]uint8, lo, width uint8) bool {
		var ivs []Interval
		for _, s := range spans {
			ivs = append(ivs, iv(int(s[0]), int(s[0])+int(s[1]%40)))
		}
		from, to := int(lo), int(lo)+int(width)
		p := Persistence(ivs, sec(from), sec(to))
		if p < 0 || p > 1 {
			return false
		}
		if to == from {
			return p == 1
		}
		up := 0
		for x := from; x < to; x++ {
			violated := false
			for _, v := range ivs {
				violated = violated || (sec(x) >= v.From && sec(x) < v.To)
			}
			if !violated {
				up++
			}
		}
		return p == 1-float64(to-from-up)/float64(to-from)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyRecorder(t *testing.T) {
	r := &LatencyRecorder{}
	if r.Mean() != 0 || r.Percentile(50) != 0 || r.Max() != 0 || r.Count() != 0 {
		t.Fatal("empty recorder should report zeros")
	}
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	if got := r.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("Mean = %v, want 50.5ms", got)
	}
	if got := r.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := r.Percentile(95); got != 95*time.Millisecond {
		t.Fatalf("p95 = %v, want 95ms", got)
	}
	if got := r.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
	if got := r.Max(); got != 100*time.Millisecond {
		t.Fatalf("Max = %v", got)
	}
	if r.Count() != 100 {
		t.Fatalf("Count = %d", r.Count())
	}
}

func TestLatencyRecorderInterleavedRecordAndQuery(t *testing.T) {
	r := &LatencyRecorder{}
	r.Record(30 * time.Millisecond)
	r.Record(10 * time.Millisecond)
	if got := r.Percentile(50); got != 10*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	r.Record(20 * time.Millisecond) // after a sorted query
	if got := r.Percentile(100); got != 30*time.Millisecond {
		t.Fatalf("p100 after new record = %v", got)
	}
	if got := r.Percentile(0.1); got != 10*time.Millisecond {
		t.Fatalf("tiny percentile = %v, want first sample", got)
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Fatal("empty ratio nonzero")
	}
	for i := 0; i < 39; i++ {
		r.RecordOutcome(true)
	}
	r.RecordOutcome(false)
	if r.Value() != 0.975 {
		t.Fatalf("Value = %v", r.Value())
	}
	if got := r.String(); got != "97.5% (39/40)" {
		t.Fatalf("String = %q", got)
	}
}

// Property: alternating one-second violations over equal dwell times
// give R = 0.5.
func TestTimeWeightedAlternating(t *testing.T) {
	var ivs []Interval
	for i := 1; i < 100; i += 2 {
		ivs = append(ivs, iv(i, i+1))
	}
	if got := Persistence(ivs, 0, sec(100)); got != 0.5 {
		t.Fatalf("R = %v, want 0.5", got)
	}
}

func TestPercentileBoundaries(t *testing.T) {
	r := &LatencyRecorder{}
	for _, d := range []int{50, 10, 30, 20, 40} {
		r.Record(time.Duration(d) * time.Millisecond)
	}
	// p→0 clamps the nearest rank to the first (smallest) sample.
	if got := r.Percentile(0.0001); got != 10*time.Millisecond {
		t.Fatalf("P~0 = %v, want 10ms", got)
	}
	// p=100 is the largest sample.
	if got := r.Percentile(100); got != 50*time.Millisecond {
		t.Fatalf("P100 = %v, want 50ms", got)
	}
	if got := r.Percentile(50); got != 30*time.Millisecond {
		t.Fatalf("P50 = %v, want 30ms", got)
	}
	empty := &LatencyRecorder{}
	if empty.Percentile(100) != 0 {
		t.Fatal("empty recorder percentile should be 0")
	}
}

func TestTraceNeverSatisfied(t *testing.T) {
	// Overlapping violations that cover the window count once: R is 0,
	// not negative.
	if got := Persistence([]Interval{iv(0, 20), iv(10, 30), iv(0, 30)}, 0, sec(30)); got != 0 {
		t.Fatalf("R = %v, want 0", got)
	}
}
