package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatalf("Expose: %v", err)
	}
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("riot_faults_total", "faults injected", "kind", "crash")
	c.Inc()
	c.Inc()
	c.Inc()
	if c.Value() != 3 {
		t.Fatalf("value = %d", c.Value())
	}
	// Same identity returns the same handle.
	if r.Counter("riot_faults_total", "faults injected", "kind", "crash") != c {
		t.Fatal("identity lookup returned a different handle")
	}
	out := expose(t, r)
	for _, want := range []string{
		"# HELP riot_faults_total faults injected\n",
		"# TYPE riot_faults_total counter\n",
		`riot_faults_total{kind="crash"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeSetAddAndUnlabeled(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("riot_members_alive", "alive members")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("value = %g", g.Value())
	}
	out := expose(t, r)
	if !strings.Contains(out, "riot_members_alive 3\n") {
		t.Fatalf("unlabeled gauge line missing:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("riot_rtt_seconds", "probe RTT", []float64{0.01, 0.1, 1}, "proto", "gossip")
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 5.555 {
		t.Fatalf("count=%d sum=%g", h.Count(), h.Sum())
	}
	out := expose(t, r)
	for _, want := range []string{
		`riot_rtt_seconds_bucket{proto="gossip",le="0.01"} 1`,
		`riot_rtt_seconds_bucket{proto="gossip",le="0.1"} 2`,
		`riot_rtt_seconds_bucket{proto="gossip",le="1"} 3`,
		`riot_rtt_seconds_bucket{proto="gossip",le="+Inf"} 4`,
		`riot_rtt_seconds_sum{proto="gossip"} 5.555`,
		`riot_rtt_seconds_count{proto="gossip"} 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscapingAndOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "", "zeta", "a", "alpha", `quote " slash \ nl`+"\n").Inc()
	out := expose(t, r)
	want := `c{alpha="quote \" slash \\ nl\n",zeta="a"} 1` + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing %q:\n%s", want, out)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type mismatch")
		}
	}()
	r.Gauge("m", "")
}

func TestExposeSortsFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "").Inc()
	r.Counter("aa_total", "").Inc()
	out := expose(t, r)
	if strings.Index(out, "aa_total") > strings.Index(out, "zz_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestWatchBusCountsAndObserves(t *testing.T) {
	b := NewBus((&virtualClock{}).Now)
	r := NewRegistry()
	sub := r.WatchBus(b)
	defer sub.Close()
	b.Emit("gossip.suspect", "n1", 0, 0, "x")
	b.Emit("gossip.suspect", "n2", 0, 0, "y")
	b.Publish(Event{Kind: "mape.cycle", Dur: 50 * time.Millisecond})
	if v := r.Counter("riot_events_total", "", "kind", "gossip.suspect").Value(); v != 2 {
		t.Fatalf("suspect count = %d", v)
	}
	h := r.Histogram("riot_span_seconds", "", nil, "kind", "mape.cycle")
	if h.Count() != 1 || h.Sum() != 0.05 {
		t.Fatalf("span histogram count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("riot_ops_total", "ops").Inc()
				r.Gauge("riot_level", "level").Set(float64(i))
				r.Histogram("riot_lat_seconds", "lat", nil).Observe(0.01)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var b strings.Builder
			_ = r.Expose(&b)
		}
	}()
	wg.Wait()
	if v := r.Counter("riot_ops_total", "ops").Value(); v != 800 {
		t.Fatalf("ops = %d", v)
	}
}

// TestLookupHitAllocatesNothing: finding an existing series — as every
// request's counter and every bus event's do — allocates nothing.
func TestLookupHitAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	route, code := "put_data", "204"
	r.Counter("riot_serve_requests_total", "", "route", route, "code", code)
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("riot_serve_requests_total", "", "route", route, "code", code).Inc()
	}); n != 0 {
		t.Fatalf("repeated Counter lookup: %v allocations, want 0", n)
	}
}

// TestSignatureOrderAndEscaping: label pairs render sorted by key with
// equal keys in call order, values escaped, past the inline pair count
// too.
func TestSignatureOrderAndEscaping(t *testing.T) {
	for _, tc := range []struct {
		labels []string
		want   string
	}{
		{nil, ""},
		{[]string{"odd"}, ""},
		{[]string{"b", "2", "a", "1", "dangling"}, `{a="1",b="2"}`},
		{[]string{"k", "second", "a", "x", "k", "first"}, `{a="x",k="second",k="first"}`},
		{[]string{"v", "q\"\\\nz"}, `{v="q\"\\\nz"}`},
		{[]string{"j", "", "i", "", "h", "", "g", "", "f", "", "e", "", "d", "", "c", "", "b", "", "a", ""},
			`{a="",b="",c="",d="",e="",f="",g="",h="",i="",j=""}`},
	} {
		if got := string(appendSignature(nil, tc.labels)); got != tc.want {
			t.Errorf("signature of %q = %s, want %s", tc.labels, got, tc.want)
		}
	}
}
