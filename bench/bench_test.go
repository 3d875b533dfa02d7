package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

func TestInputsArePureFunctionOfSeedAndWorkload(t *testing.T) {
	ops := func(seed int64, workload string, client int) []op {
		g := newOpGen(seed, workload, client, 1024, 0.5)
		out := make([]op, 2000)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	base := ops(7, "serve-read", 0)
	if !reflect.DeepEqual(base, ops(7, "serve-read", 0)) {
		t.Fatal("same (seed, workload, client) gave different ops")
	}
	for name, other := range map[string][]op{
		"seed": ops(8, "serve-read", 0), "workload": ops(7, "serve-write", 0), "client": ops(7, "serve-read", 1),
	} {
		if reflect.DeepEqual(base, other) {
			t.Errorf("another %s gave the same ops", name)
		}
	}
	seen := map[float64]bool{}
	for client := 0; client < 2; client++ {
		for _, o := range ops(7, "serve-read", client) {
			if o.kind != opPut {
				continue
			}
			if seen[o.value] {
				t.Fatalf("value %v written twice", o.value)
			}
			seen[o.value] = true
			if c, _, ok := valueOrigin(o.value); !ok || c != client {
				t.Fatalf("value %v: origin (%d, %v), want client %d", o.value, c, ok, client)
			}
		}
	}
	if !reflect.DeepEqual(arrivals(7, "serve-write", 0, 250, 500), arrivals(7, "serve-write", 0, 250, 500)) {
		t.Error("same seed gave different arrivals")
	}
	due := arrivals(7, "serve-write", 0, 250, 5000)
	if mean := due[len(due)-1].Seconds() / float64(len(due)); math.Abs(mean-1.0/250) > 0.0004 {
		t.Errorf("mean gap %v s, want 1/250", mean)
	}
	if s := subSeed(0, "w", "s", 0); s <= 0 {
		t.Errorf("subSeed %d: scenario configs read a zero seed as unset", s)
	}
}

func TestTailIsHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, used float64
	}{
		{19, 99, 50}, {20, 99, 50}, {99, 99, 50}, {100, 99, 90}, {999, 99, 90},
		{1000, 99, 99}, {1000, 99.9, 99}, {9999, 99.9, 99}, {10000, 99.9, 99.9}, {10000, 99, 99},
	} {
		if got := supportedTail(c.n, c.want); got != c.used {
			t.Errorf("supportedTail(%d, %g) = %g, want %g", c.n, c.want, got, c.used)
		}
	}
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if v, used := tail(asc, 99); v != 990 || used != 99 {
		t.Errorf("tail = %g at p%g, want 990 at p99 (ten samples beyond it)", v, used)
	}
	if v := percentile(asc, 50); v != 500 {
		t.Errorf("p50 = %g, want 500", v)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want Python's 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5", s)
	}
}

// fakeClock advances only when told to.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

func TestPacedRequestsAreTimedFromWhenTheyWereDue(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{}
	service := []time.Duration{25 * ms, 1 * ms, 1 * ms, 1 * ms}
	got := pace(clk, []time.Duration{10 * ms, 20 * ms, 30 * ms, 50 * ms}, func(i int) { clk.now += service[i] })
	// The first call stalls for 25 ms. The two due behind it go out late,
	// and the stall is charged to them; the fourth is on time again.
	want := []pacedSample{
		{late: 0, svc: 25 * ms, fromDue: 25 * ms},
		{late: 15 * ms, svc: 1 * ms, fromDue: 16 * ms},
		{late: 6 * ms, svc: 1 * ms, fromDue: 7 * ms},
		{late: 0, svc: 1 * ms, fromDue: 1 * ms},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pace = %v\nwant   %v", got, want)
	}
}

func TestSamplesGoToTheFirstModuleFrameFromTheLeaf(t *testing.T) {
	stacks := []stack{
		// gob under realnet under a store's sync turn: realnet asked for it.
		{[]string{"encoding/gob.(*Encoder).Encode", "repro/internal/realnet.(*Node).Send", "repro/internal/dataflow.(*Store).syncTo", "repro/internal/realnet.(*Node).eventLoop"}, 40},
		{[]string{"runtime.mallocgc", "repro/internal/simnet.(*Sim).Step", "repro/internal/core.(*System).Run", "main.runSim"}, 30},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 10},
		{[]string{"syscall.write", "net/http.(*persistConn).writeLoop"}, 8},
		{[]string{"syscall.read", "net/http.(*conn).serve"}, 6},
		{[]string{"encoding/json.Unmarshal", "repro/internal/serve.(*Server).handlePut", "net/http.(*conn).serve"}, 3},
		{[]string{"sort.Float64s", "main.runServe"}, 2},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, 1},
		{[]string{"repro/internal/experiments.RunPool"}, 0}, // a package with no layer of its own
	}
	s := attribute(stacks)
	want := map[string]float64{
		"realnet": 0.40, "simnet": 0.30, "runtime_gc": 0.10, "net_http_client": 0.08,
		"net_http_server": 0.06, "serve": 0.03, "harness": 0.02, "other": 0.01,
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += s.share(l)
		if math.Abs(s.share(l)-want[l]) > 1e-9 {
			t.Errorf("share(%s) = %g, want %g", l, s.share(l), want[l])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
	if got := layerOf([]string{"repro/internal/experiments.RunPool"}); got != "other" {
		t.Errorf("unlisted package went to %q", got)
	}
	if got := s.under("repro/internal/core.(*System).Run"); math.Abs(got-0.30) > 1e-9 {
		t.Errorf("under(core Run) = %g, want 0.30", got)
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

func TestDecodeProfileReadsRuntimePprofOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("a CPU profile is already running:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spinning int64
	for _, st := range stacks {
		total += st.value
		if hasFrame(st.frames, []string{"repro/bench.spin"}) {
			spinning += st.value
		}
	}
	if total == 0 || float64(spinning) < 0.5*float64(total) {
		t.Errorf("spin has %d of %d ns in %d samples", spinning, total, len(stacks))
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		checkName(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		checkName(d.Name)
	}
}

// TestQuickSmoke runs every workload at tiny sizes and holds its result
// line to the driver's contract.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	verify := func(w *workloadDef, trace bool, defs []metricDef) {
		res := runWorkload(w, 1, 0.3, trace, true, out)
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want unit %q", w.Name, d.Name, m, ok, d.Unit)
			}
			if !trace && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g must never be 0", w.Name, d.Name, m.Value)
			}
		}
	}
	for i := range workloads {
		verify(&workloads[i], false, endToEnd)
	}
	// One traced run covers the profile, the probes, both ledgers and
	// the trace file.
	verify(findWorkload("sim-city"), true, perLayer)
	data, err := os.ReadFile(out + "/trace-sim-city.json")
	if err != nil || !bytes.Contains(data, []byte(`"traceEvents"`)) || !bytes.Contains(data, []byte(`"name":"analyze"`)) {
		t.Errorf("trace file: %v, %d bytes", err, len(data))
	}
}
