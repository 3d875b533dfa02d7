// Command bench is the repository's benchmark: six workloads over the
// simulator tiers, the serve path and the live city, measured end to
// end and layer by layer from outside, through the packages' public
// functions. See README.md for the metric glossary and how to run it.
//
// One workload, as the driver runs it:
//
//	bash bench/run.sh --workload serve-write --seed 3 --seconds 10 --trace 0
//
// Everything, each workload in its own child process (from bench/):
//
//	go run .                       # untraced set: end-to-end metrics
//	go run . -trace 1              # plus a traced set: per-layer ledger
//	go run . -sets 2 -out baseline # two sets and a ledger, written as JSON
//	go run . -compare A.json B.json [A2.json B2.json ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a workload run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// check is one named correctness check of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// run carries one workload run: its inputs, and what it measured.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	clients  int // W: client goroutines, connections, and shard lanes

	metrics   map[string]float64
	checks    []check
	attempted int
	failed    int
	spans     *spanLog // nil unless traced
	samples   map[string]int
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// count records how many samples a timing metric rests on.
func (r *run) count(name string, n int) { r.samples[name] = n }

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// op counts one attempted operation; a failed one fails the run's
// fail_frac, and any failed check fails the run.
func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
		seed     = flag.Int64("seed", 1, "derives every scenario seed, key, value, op and arrival")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "1: run under a CPU profile and spans, add probes and ledgers, report per-layer metrics")
		quick    = flag.Bool("quick", false, "tiny sizes, for the smoke test")
		sets     = flag.Int("sets", 1, "with no -workload: how many untraced sets to run")
		out      = flag.String("out", "out", "directory for a workload's trace, or for set<i>.json and ledger.json")
		compare  = flag.Bool("compare", false, "compare pairs of set files: A.json B.json [A2.json B2.json ...]")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as spec.go defines it")
	)
	flag.Parse()
	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
		return
	case *compare:
		os.Exit(compareMain(flag.Args()))
	case *workload == "":
		os.Exit(runAll(*seed, *seconds, *trace == 1, *quick, *sets, *out))
	}
	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res := runWorkload(w, *seed, *seconds, *trace == 1, *quick, *out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process, prints every metric
// and check by name, and returns the result line: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func runWorkload(w *workloadDef, seed int64, seconds float64, trace, quick bool, outDir string) result {
	r := &run{
		workload: w.Name, seed: seed, seconds: seconds, trace: trace, quick: quick,
		clients: min(runtime.NumCPU(), 4),
		metrics: map[string]float64{}, samples: map[string]int{},
	}
	var prof *cpuProfile
	if trace {
		r.spans = newSpanLog()
		prof = startCPUProfile()
	}
	before := readGoStats()
	end := r.spans.begin("workload", 0)
	w.run(r)
	end()
	goStatsInto(r, before, readGoStats())
	r.set("peak_rss_mb", peakRSSMB())
	if r.attempted > 0 {
		r.set("fail_frac", float64(r.failed)/float64(r.attempted))
	}
	if trace {
		r.set("traced.work_per_s", r.metrics["work_per_s"])
		shares := prof.stop()
		shares.into(r)
		runProbes(r)
		ledgers(r, shares)
		if err := r.spans.writeFile(outDir, "trace-"+w.Name+".json"); err != nil {
			r.check("trace-written", false, "%v", err)
		}
	}

	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Correct: true, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok && !trace {
			r.check("metric-"+d.Name, false, "end-to-end metric not measured")
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	printRun(r)
	for _, c := range r.checks {
		if !c.ok {
			res.Correct = false
		}
	}
	if r.failed > 0 {
		res.Correct = false
	}
	return res
}

// printRun lists everything the run measured, whichever set the result
// line carries, then the checks.
func printRun(r *run) {
	units := map[string]string{}
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%g trace=%v clients=%d %s\n",
		r.workload, r.seed, r.seconds, r.trace, r.clients, time.Now().UTC().Format(time.RFC3339))
	for _, n := range names {
		note := ""
		if c, ok := r.samples[n]; ok {
			note = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("%-32s %16.6g %s%s\n", n, r.metrics[n], units[n], note)
	}
	fmt.Printf("%-32s %16d\n%-32s %16d\n", "attempted", r.attempted, "failed", r.failed)
	for _, c := range r.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAILED"
		}
		fmt.Printf("check %-28s %s  %s\n", c.name, verdict, c.detail)
	}
}
