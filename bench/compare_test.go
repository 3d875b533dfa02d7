package main

import (
	"math/rand"
	"testing"
)

// noisy returns n values around center, within ±rel of it.
func noisy(rng *rand.Rand, n int, center, rel float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center * (1 + rel*(2*rng.Float64()-1))
	}
	return out
}

func TestJudge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           verdict
	}{
		{"lower by a fifth in ten pairs", noisy(rng, 10, 100, 0.02), noisy(rng, 10, 80, 0.02), "lower", 0.10, improved},
		{"higher by a fifth in ten pairs", noisy(rng, 10, 100, 0.02), noisy(rng, 10, 120, 0.02), "higher", 0.10, improved},
		{"a gain in too few pairs is no gain", noisy(rng, 5, 100, 0.02), noisy(rng, 5, 80, 0.02), "lower", 0.10, unchanged},
		{"a gain inside the parent's own spread is no gain", noisy(rng, 10, 100, 0.04), noisy(rng, 10, 99, 0.04), "lower", 0.10, unchanged},
		{"worse by more than the bound", noisy(rng, 10, 100, 0.02), noisy(rng, 10, 115, 0.02), "lower", 0.10, regressed},
		{"worse by more than the bound, higher is better", noisy(rng, 10, 100, 0.02), noisy(rng, 10, 85, 0.02), "higher", 0.10, regressed},
		{"worse within the bound", noisy(rng, 10, 100, 0.02), noisy(rng, 10, 105, 0.02), "lower", 0.10, unchanged},
		{"a spread wider than the bound cannot tell", noisy(rng, 10, 100, 0.40), noisy(rng, 10, 100, 0.40), "lower", 0.10, unresolved},
		{"one pair, same value", []float64{5}, []float64{5}, "lower", 0.10, unchanged},
		{"an exact count that moved", []float64{15149756, 15149756}, []float64{15500000, 15500000}, "lower", 0.02, regressed},
	} {
		// A wide spread may put the change's median beyond the bound by
		// chance; pin that case to equal medians.
		if c.want == unresolved {
			c.change = append([]float64(nil), c.parent...)
		}
		if got, _, _ := judge(c.parent, c.change, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	_, wins, losses := judge([]float64{10, 10, 10}, []float64{9, 10, 11}, "lower", 0.1)
	if wins != 1 || losses != 1 {
		t.Errorf("won %d lost %d, want 1 and 1: a tie counts for neither", wins, losses)
	}
}

func TestCompareSetsRowsAndBounds(t *testing.T) {
	set := func(work, p99 float64) setFile {
		return setFile{Schema: setSchema, Workloads: map[string]result{
			"serve-write": {Correct: true, Metrics: map[string]value{
				"work_per_s":       {work, "1/s"},
				"serve.lat_p99_us": {p99, "us"},
				"live.R_goal":      {0, "ratio"}, // a layer this workload does not use
				"not.a.metric":     {1, "x"},
			}},
		}}
	}
	rows := compareSets([]setFile{set(20000, 300)}, []setFile{set(14000, 310)})
	got := map[string]verdict{}
	for _, r := range rows {
		if r.workload != "serve-write" {
			t.Errorf("row for %s", r.workload)
		}
		got[r.metric] = r.verdict
	}
	want := map[string]verdict{"work_per_s": regressed, "serve.lat_p99_us": unchanged}
	if len(got) != len(want) || got["work_per_s"] != regressed || got["serve.lat_p99_us"] != unchanged {
		t.Errorf("verdicts %v, want %v", got, want)
	}
}
