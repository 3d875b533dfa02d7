package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

// trace with outage from 10s to 30s over [0,60].
func outageTrace() *SatisfactionTrace {
	tr := &SatisfactionTrace{}
	for t := 0; t <= 60; t += 10 {
		ok := !(t >= 10 && t < 30)
		tr.Record(sec(t), ok)
	}
	return tr
}

func TestPersistenceEmpty(t *testing.T) {
	tr := &SatisfactionTrace{}
	if tr.TimeWeightedPersistence(sec(10)) != 0 || tr.MTTR() != 0 || len(tr.OutageEnds()) != 0 {
		t.Fatal("empty trace should report 0")
	}
}

func TestTimeWeightedPersistence(t *testing.T) {
	tr := outageTrace()
	// Unsatisfied during [10,30) = 20s of 60s → R = 40/60.
	want := 40.0 / 60.0
	if got := tr.TimeWeightedPersistence(sec(60)); got != want {
		t.Fatalf("R = %v, want %v", got, want)
	}
}

func TestTimeWeightedPersistenceEndBeforeStart(t *testing.T) {
	tr := &SatisfactionTrace{}
	tr.Record(sec(10), true)
	if tr.TimeWeightedPersistence(sec(5)) != 0 {
		t.Fatal("end before start should be 0")
	}
}

func TestOutageEndsAndMTTR(t *testing.T) {
	tr := &SatisfactionTrace{}
	// Outage 1: 10-20; outage 2: 40-45 (recorded at 5s granularity).
	points := []struct {
		t  int
		ok bool
	}{
		{0, true}, {5, true}, {10, false}, {15, false}, {20, true},
		{25, true}, {30, true}, {35, true}, {40, false}, {45, true}, {50, true},
	}
	for _, p := range points {
		tr.Record(sec(p.t), p.ok)
	}
	if got := tr.OutageEnds(); len(got) != 2 || got[0] != sec(20) || got[1] != sec(45) {
		t.Fatalf("OutageEnds = %v, want [20s 45s]", got)
	}
	// MTTR = ((20-10) + (45-40)) / 2 = 7.5s
	if got := tr.MTTR(); got != 7500*time.Millisecond {
		t.Fatalf("MTTR = %v, want 7.5s", got)
	}
}

func TestTraceStartingUnsatisfiedCountsOutage(t *testing.T) {
	tr := &SatisfactionTrace{}
	tr.Record(0, false)
	tr.Record(sec(5), true)
	if got := tr.OutageEnds(); len(got) != 1 || got[0] != sec(5) {
		t.Fatalf("OutageEnds = %v, want [5s]", got)
	}
	if tr.MTTR() != sec(5) {
		t.Fatalf("MTTR = %v", tr.MTTR())
	}
}

func TestOpenOutage(t *testing.T) {
	tr := &SatisfactionTrace{}
	tr.Record(0, true)
	tr.Record(sec(10), false)
	if tr.MTTR() != 0 {
		t.Fatal("open outage should not contribute to MTTR")
	}
	if got := tr.OutageEnds(); len(got) != 0 {
		t.Fatalf("OutageEnds = %v, want none while the outage is open", got)
	}
}

// Property: persistence is always in [0,1] and equals 1 iff all
// observations are satisfied.
func TestPersistenceBoundsProperty(t *testing.T) {
	prop := func(bits []bool) bool {
		tr := &SatisfactionTrace{}
		all := true
		for i, b := range bits {
			tr.Record(time.Duration(i)*time.Second, b)
			all = all && b
		}
		p := tr.TimeWeightedPersistence(time.Duration(len(bits)) * time.Second)
		if p < 0 || p > 1 {
			return false
		}
		if len(bits) > 0 && all != (p == 1) {
			return false
		}
		return true
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

// Property: time-weighted persistence of an alternating trace with
// equal dwell times converges to ~0.5.
func TestTimeWeightedAlternating(t *testing.T) {
	tr := &SatisfactionTrace{}
	for i := 0; i < 100; i++ {
		tr.Record(time.Duration(i)*time.Second, i%2 == 0)
	}
	got := tr.TimeWeightedPersistence(sec(100))
	want := 50.0 / 99.0 // 50 satisfied seconds over the 99s span... plus tail
	// With end=100: last sample (i=99, unsat) holds 1s; satisfied = 50s
	// of span 100s.
	want = 50.0 / 100.0
	if got != want {
		t.Fatalf("R = %v, want %v", got, want)
	}
}

func TestTimeWeightedPersistenceEndAtFirstSample(t *testing.T) {
	tr := &SatisfactionTrace{}
	tr.Record(sec(10), true)
	tr.Record(sec(20), false)
	// A zero-length interval has no time to weight.
	if got := tr.TimeWeightedPersistence(sec(10)); got != 0 {
		t.Fatalf("R over empty interval = %v, want 0", got)
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
	tr := &SatisfactionTrace{}
	tr.Record(0, false)
	tr.Record(sec(10), false)
	tr.Record(sec(20), false)
	if got := tr.OutageEnds(); len(got) != 0 {
		t.Fatalf("OutageEnds = %v, want none (the initial outage never ends)", got)
	}
	if tr.MTTR() != 0 {
		t.Fatal("never-recovering outage must not contribute to MTTR")
	}
	if got := tr.TimeWeightedPersistence(sec(30)); got != 0 {
		t.Fatalf("R = %v, want 0", got)
	}
}
