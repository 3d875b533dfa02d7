// Command riotbench regenerates every table and figure of the paper
// as measured experiments and prints them.
//
// Usage:
//
//	riotbench                      # all experiments, paper-scale parameters
//	riotbench -quick               # shortened parameters for a fast look
//	riotbench -only f3             # one experiment: table12, f1..f5, a1,
//	                               # a2, x1, x2, city, chaos/<name>
//	riotbench -parallel 4 -seeds 8 # fan the table12 campaign over workers
//	riotbench -shards 4            # four zone lanes in every run
//	riotbench -out BENCH_riot.json # write per-experiment benchmark JSON
//
// The city experiment runs the four-archetype matrix at the Figure-1
// city tier (200 gateways, 5009 devices; -quick swaps in the reduced
// smoke tier). Every minimized counterexample in the chaos corpus is
// additionally registered as a chaos/<name> experiment, so the perf
// gate tracks searched-out worst-case schedules alongside scripted
// ones.
//
// The serve experiment boots a 3-node real-socket cluster
// (internal/serve) and drives it with an open-loop load run; the
// request p50/p99 land in the bench JSON as lat_p50_ns/lat_p99_ns so
// serving-path latency is gated alongside simulation throughput.
//
// The table12 experiment is a multi-seed campaign: -seeds M runs the
// maturity matrix at M consecutive seeds and -parallel N distributes
// the (seed, archetype) runs over N workers. Journals are byte-
// identical whichever worker count is used; -hashes prints the
// per-run journal hashes so serial and parallel output can be diffed
// directly (the determinism CI job does exactly that).
//
// -shards splits every simulation into zone lanes (DESIGN.md §11) and
// thereby picks the journal family: 0 is the single-lane family the
// pinned hashes belong to, -shards 1 is the serial reference of the
// per-node-stream family and higher counts run zone lanes in parallel
// with journals identical to it.
// -parallel and -shards multiply: N workers × S shard lanes would run
// N*S goroutines hot, so when both exceed one the worker count is
// capped at GOMAXPROCS/shards — campaign throughput already saturates
// the machine, and oversubscribing would only serialize the shard
// windows. The metro/s1, metro/s2 and metro/s4 experiments run the
// metropolis tier (~104k devices; -quick swaps the 1-minute smoke) at
// fixed shard counts so the bench JSON records the cores-vs-wall-clock
// scaling curve.
//
// With -trace a dedicated short ML4 run is traced and written as
// Chrome trace-event JSON (riotbench -trace out.json -only none skips
// the experiments and writes only the trace):
//
//	riotbench -trace out.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/observatory"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "riotbench:", err)
		os.Exit(1)
	}
}

// errWriter latches the first write error so experiment code can print
// unconditionally while run() still reports broken pipes and full
// disks with a non-zero exit.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// benchResult is one experiment's measurement in the riotbench bench
// JSON. ns_per_op/allocs_per_op/bytes_per_op cover one full experiment
// execution; runs counts the result rows it produced.
type benchResult struct {
	ID          string  `json:"id"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	Runs        int     `json:"runs"`
	RunsPerSec  float64 `json:"runs_per_sec"`

	// Resilience latencies (virtual time), set only by experiments that
	// derive an incident analysis from a run journal (the city tier's
	// ML4 run). benchdiff gates upward drift like ns_per_op — slower
	// detection or recovery at city scale is a resilience regression
	// even when wall-clock throughput holds.
	MTTDP50Ns int64 `json:"mttd_p50_ns,omitempty"`
	MTTDP99Ns int64 `json:"mttd_p99_ns,omitempty"`
	MTTRP50Ns int64 `json:"mttr_p50_ns,omitempty"`
	MTTRP99Ns int64 `json:"mttr_p99_ns,omitempty"`

	// Serving-path latencies (wall clock), set only by the serve
	// experiment: request percentiles measured by an open-loop load run
	// against a live 3-node cluster. benchdiff gates upward drift.
	LatP50Ns int64 `json:"lat_p50_ns,omitempty"`
	LatP99Ns int64 `json:"lat_p99_ns,omitempty"`

	// Replication bytes-on-wire (virtual wire, deterministic), set only
	// by the sync experiments. benchdiff gates upward drift: shipping
	// more sync bytes for the same scenario is a bandwidth regression.
	SyncBytes int64 `json:"sync_bytes,omitempty"`
}

// benchFile is the schema scripts/benchdiff.go compares.
type benchFile struct {
	Schema  string        `json:"schema"`
	Benches []benchResult `json:"benches"`
}

const benchSchema = "riotbench/bench/v1"

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("riotbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shorter runs")
	only := fs.String("only", "", "run a single experiment: table12, f1..f5, a1, a2, x1, x2, city, serve, sync/city, sync/metro, metro/s<n>, chaos/<name>")
	corpus := fs.String("corpus", "corpus/chaos", "chaos corpus directory; each counterexample becomes a chaos/<name> experiment (missing directory: skipped)")
	seed := fs.Int64("seed", 1, "experiment seed")
	seedRuns := fs.Int("seeds", 1, "number of seeds for the table12 campaign (>1 adds mean/min/max rows)")
	parallel := fs.Int("parallel", 1, "worker count for the table12 campaign (0 = GOMAXPROCS)")
	hashes := fs.Bool("hashes", false, "print per-(seed,archetype) journal hashes for the table12 campaign")
	shards := fs.Int("shards", 0, "zone-shard lane count for every simulation; picks the journal family (0 = one lane, shared random stream: the pinned hashes; >= 1 = per-node streams, identical at any count, 1 = serial reference leg)")
	outPath := fs.String("out", "", "write per-experiment benchmark JSON (ns/op, allocs/op, runs/sec) to this file")
	benchReps := fs.Int("benchreps", 1, "repetitions per experiment for -out measurements; the minimum is recorded")
	trace := fs.String("trace", "", "additionally trace a short ML4 run into this Chrome trace JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *shards < 0 {
		return fmt.Errorf("-shards %d: must be 0 or more", *shards)
	}
	cfg := core.DefaultScenario()
	cfg.Seed = *seed
	cfg.Shards = *shards
	zoneCounts := []int{20, 100, 400, 1000}
	if *quick {
		cfg.Duration = 6 * time.Minute
		zoneCounts = []int{4, 16, 64}
	}

	// -parallel workers each own a full simulation; with -shards every
	// simulation additionally runs shard-count lanes. Cap the product at
	// GOMAXPROCS so the two axes of parallelism cannot oversubscribe the
	// machine — oversubscription serializes the shard windows and erases
	// the speedup both flags exist to deliver.
	workers := *parallel
	if *shards > 1 {
		if maxw := max(1, runtime.GOMAXPROCS(0) / *shards); workers <= 0 || workers > maxw {
			workers = maxw
		}
	}

	type experiment struct {
		id    string
		title string
		run   func(io.Writer) (int, error)
	}
	// cityML4 captures the city experiment's ML4 incident analysis so
	// its MTTD/MTTR percentiles land in the bench JSON next to the
	// wall-clock figures (deterministic runs: identical across reps).
	var cityML4 *observatory.Analysis
	// serveRep keeps the best (lowest-p99) load report across reps:
	// the serving path is wall-clock real, so the minimum strips
	// scheduler noise the same way best-of-reps does for ns_per_op.
	var serveRep *serve.LoadReport
	// syncBytes captures the sync experiments' bytes-on-wire figure
	// (deterministic: identical across reps) for the bench JSON.
	syncBytes := make(map[string]int64)
	all := []experiment{
		{"table12", "Tables 1+2 — maturity matrix under the standard disruption schedule", func(w io.Writer) (int, error) {
			seeds := make([]int64, max(1, *seedRuns))
			for i := range seeds {
				seeds[i] = *seed + int64(i)
			}
			runs, err := experiments.MatrixCampaign(cfg, seeds, workers)
			if err != nil {
				return 0, err
			}
			fmt.Fprint(w, experiments.FormatTable12(runs[0].Reports))
			rows := len(runs[0].Reports)
			if len(seeds) > 1 {
				stats := experiments.StatsFromRuns(runs)
				fmt.Fprintf(w, "\naggregate over %d seeds:\n", len(seeds))
				fmt.Fprint(w, experiments.FormatTable12Stats(stats))
				rows = len(seeds) * len(runs[0].Reports)
			}
			if *hashes {
				archs := core.AllArchetypes()
				for _, r := range runs {
					for ai, h := range r.Hashes {
						fmt.Fprintf(w, "journal seed=%d arch=%s %s\n", r.Seed, archs[ai], h)
					}
				}
			}
			return rows, nil
		}},
		{"f1", "Figure 1 — landscape scale (edge-centric deployment, 1 virtual minute)", func(w io.Writer) (int, error) {
			pts := experiments.Figure1(*seed, zoneCounts, time.Minute)
			fmt.Fprint(w, experiments.FormatFigure1(pts))
			return len(pts), nil
		}},
		{"f2", "Figure 2 — model construction and resilience-property checking", func(w io.Writer) (int, error) {
			pts := experiments.Figure2([]int{4, 8, 12, 16}, 3)
			quants := experiments.Figure2Quantitative([]int{1, 2, 5, 10, 20})
			fmt.Fprint(w, experiments.FormatFigure2(pts, quants))
			return len(pts) + len(quants), nil
		}},
		{"f3", "Figure 3 — centralized vs decentralized control under cloud downtime", func(w io.Writer) (int, error) {
			pts := experiments.Figure3(*seed, []float64{0, 0.2, 0.4, 0.6, 0.8})
			fmt.Fprint(w, experiments.FormatFigure3(pts))
			return len(pts), nil
		}},
		{"f4", "Figure 4 — cloud-mediated vs edge-governed data flows under WAN partitions", func(w io.Writer) (int, error) {
			pts := experiments.Figure4(*seed, []float64{0, 0.25, 0.5, 0.75})
			fmt.Fprint(w, experiments.FormatFigure4(pts))
			return len(pts), nil
		}},
		{"f5", "Figure 5 — MAPE loop placement (edge vs cloud) vs environment change rate", func(w io.Writer) (int, error) {
			pts := experiments.Figure5(*seed, []float64{1, 2, 4, 8})
			fmt.Fprint(w, experiments.FormatFigure5(pts))
			return len(pts), nil
		}},
		{"a1", "Ablation A1 — bolt-on resilience (hardened ML2) vs native ML4", func(w io.Writer) (int, error) {
			reports := experiments.AblationA1(cfg)
			fmt.Fprint(w, experiments.FormatTable12(reports))
			fmt.Fprintln(w, "(rows: ML2 plain, ML2 with bolt-on mechanisms, ML4 native)")
			return len(reports), nil
		}},
		{"a2", "Ablation A2 — ML4 with one decentralization mechanism removed", func(w io.Writer) (int, error) {
			variants := experiments.AblationA2(cfg)
			fmt.Fprint(w, experiments.FormatA2(variants))
			return len(variants), nil
		}},
		{"x1", "Extension X1 — mobility: static binding vs nearest-edge handover", func(w io.Writer) (int, error) {
			pts := experiments.ExtensionMobility(*seed, []float64{1, 2, 4, 8})
			fmt.Fprint(w, experiments.FormatMobility(pts))
			return len(pts), nil
		}},
		{"x2", "Extension X2 — cost of resilience: ML4 sync interval vs R and traffic", func(w io.Writer) (int, error) {
			intervals := []time.Duration{time.Second, 2 * time.Second, 5 * time.Second, 15 * time.Second}
			pts := experiments.ExtensionCost(cfg, intervals)
			fmt.Fprint(w, experiments.FormatCost(pts))
			return len(pts), nil
		}},
		{"city", "City tier — maturity matrix at Figure-1 scale (200 gateways, 5009 devices)", func(w io.Writer) (int, error) {
			ccfg := core.CityScenario()
			if *quick {
				ccfg = core.CityScenarioSmoke()
			}
			ccfg.Seed = *seed
			// Run the matrix archetype by archetype (same order and
			// reports as experiments.Table12) so the ML4 journal can be
			// analyzed for city-scale detection/recovery latencies.
			var reports []core.Report
			for _, a := range core.AllArchetypes() {
				sys := core.NewSystem(ccfg, a)
				reports = append(reports, sys.Run())
				if a == core.ML4 {
					an := observatory.Analyze(sys.Journal(), observatory.Options{
						Duration: ccfg.Duration, Zones: ccfg.Zones,
					})
					cityML4 = &an
				}
			}
			fmt.Fprint(w, experiments.FormatTable12(reports))
			if cityML4 != nil && cityML4.MTTD.Count > 0 {
				fmt.Fprintf(w, "ML4 incidents: %d (%d unresolved)  MTTD p50=%s p99=%s  MTTR p50=%s p99=%s\n",
					len(cityML4.Incidents), cityML4.Unresolved,
					cityML4.MTTD.P50.Round(time.Millisecond), cityML4.MTTD.P99.Round(time.Millisecond),
					cityML4.MTTR.P50.Round(time.Millisecond), cityML4.MTTR.P99.Round(time.Millisecond))
			}
			return len(reports), nil
		}},
		{"serve", "Serving path — 3-node real-socket cluster under open-loop load", func(w io.Writer) (int, error) {
			rps, dur := 300, 5*time.Second
			if *quick {
				rps, dur = 150, 2*time.Second
			}
			cl, err := serve.StartCluster(3, serve.ClusterOptions{})
			if err != nil {
				return 0, err
			}
			defer cl.Close()
			// Warmup: establish connections and populate the key space so
			// the measured percentiles are steady-state serving, not TCP
			// connects and cold-start event-loop contention.
			if _, err := serve.RunLoad(serve.LoadConfig{
				Targets: cl.URLs(), RPS: 50, Duration: 500 * time.Millisecond,
				Conns: 64, Keys: 32, Seed: *seed,
			}); err != nil {
				return 0, err
			}
			rep, err := serve.RunLoad(serve.LoadConfig{
				Targets: cl.URLs(), RPS: rps, Duration: dur,
				Conns: 64, Keys: 32, Seed: *seed,
			})
			if err != nil {
				return 0, err
			}
			if rep.ServerErr+rep.NetErr > 0 {
				return 0, fmt.Errorf("errors under load: %s", rep.Format())
			}
			fmt.Fprintln(w, rep.Format())
			if serveRep == nil || rep.Latency.P99 < serveRep.Latency.P99 {
				r := rep
				serveRep = &r
			}
			return rep.OK, nil
		}},
	}
	// Replication-cost legs: one ML4 run per tier, reporting the sync
	// path's bytes-on-wire (accurate per-entry encoded sizes summed over
	// every store link). Deterministic, so benchdiff can gate upward
	// drift tightly — shipping more bytes for the same scenario is a
	// bandwidth regression even when wall-clock throughput holds.
	for _, leg := range []struct {
		id   string
		cfgf func() core.ScenarioConfig
	}{
		{"sync/city", func() core.ScenarioConfig {
			if *quick {
				return core.CityScenarioSmoke()
			}
			return core.CityScenario()
		}},
		{"sync/metro", func() core.ScenarioConfig {
			if *quick {
				return core.MetropolisScenarioSmoke()
			}
			return core.MetropolisScenario()
		}},
	} {
		leg := leg
		all = append(all, experiment{
			id:    leg.id,
			title: fmt.Sprintf("Sync path — ML4 replication bytes-on-wire (%s)", leg.id),
			run: func(w io.Writer) (int, error) {
				scfg := leg.cfgf()
				scfg.Seed = *seed
				sys := core.NewSystem(scfg, core.ML4)
				rep := sys.Run()
				st := sys.SyncTraffic()
				fmt.Fprintf(w, "frames=%d entries=%d bytes=%d acks=%d R(goal)=%.4f\n",
					st.FramesSent, st.EntriesSent, st.BytesSent, st.AcksIn, rep.GoalPersistence)
				syncBytes[leg.id] = int64(st.BytesSent)
				return 1, nil
			},
		})
	}
	// Metropolis scaling legs: one ML4 run of the metropolis tier per
	// shard count. The bench JSON then carries ns_per_op for the serial
	// reference and each sharded leg side by side, so the committed
	// baseline records the cores-vs-wall-clock curve and benchdiff
	// gates it like any other figure. Later legs cross-check their
	// journal hash against the serial leg — a scaling number from a
	// diverging run would be meaningless.
	var metroHash string
	for _, n := range []int{1, 2, 4} {
		n := n
		all = append(all, experiment{
			id:    fmt.Sprintf("metro/s%d", n),
			title: fmt.Sprintf("Metropolis tier — ML4, %d shard(s) (scaling leg)", n),
			run: func(w io.Writer) (int, error) {
				mcfg := core.MetropolisScenario()
				if *quick {
					mcfg = core.MetropolisScenarioSmoke()
				}
				mcfg.Seed = *seed
				mcfg.Shards = n
				sys := core.NewSystem(mcfg, core.ML4)
				rep := sys.Run()
				h := sys.JournalHash()
				fmt.Fprintf(w, "shards=%d R(goal)=%.4f journal %.12s\n", n, rep.GoalPersistence, h)
				if n == 1 {
					metroHash = h
				} else if metroHash != "" && h != metroHash {
					return 0, fmt.Errorf("shards=%d journal hash %s diverges from serial %s", n, h, metroHash)
				}
				return 1, nil
			},
		})
	}
	// Corpus-driven worst-case benches: every minimized counterexample
	// in the chaos corpus becomes a named experiment, so the perf gate
	// tracks searched-out worst-case schedules alongside scripted ones.
	if ces, err := chaos.LoadCorpus(*corpus); err == nil {
		for _, ce := range ces {
			ce := ce
			all = append(all, experiment{
				id:    "chaos/" + ce.Name,
				title: fmt.Sprintf("Chaos corpus — %s (minimized worst-case schedule)", ce.Name),
				run: func(w io.Writer) (int, error) {
					if err := ce.Replay(); err != nil {
						return 0, err
					}
					fmt.Fprintf(w, "replayed %s: %d fault events, journal %.12s\n",
						ce.Name, ce.Schedule.Len(), ce.JournalHash)
					return 1, nil
				},
			})
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("chaos corpus %s: %w", *corpus, err)
	}

	ew := &errWriter{w: out}
	reps := max(1, *benchReps)
	if *outPath == "" {
		reps = 1 // repetitions only sharpen the -out measurement
	}
	var benches []benchResult
	ran := 0
	for _, ex := range all {
		if *only != "" && ex.id != *only {
			continue
		}
		fmt.Fprintf(ew, "=== %s ===\n", ex.title)
		var br benchResult
		// Best-of-reps: experiments are deterministic, so the minimum
		// over repetitions strips scheduler and GC noise from the
		// wall-clock figure the CI gate compares.
		for rep := 0; rep < reps; rep++ {
			w := io.Writer(ew)
			if rep > 0 {
				w = io.Discard
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			rows, err := ex.run(w)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", ex.id, err)
			}
			cur := benchResult{
				ID:          ex.id,
				NsPerOp:     elapsed.Nanoseconds(),
				AllocsPerOp: after.Mallocs - before.Mallocs,
				BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
				Runs:        rows,
			}
			if secs := elapsed.Seconds(); secs > 0 {
				cur.RunsPerSec = float64(rows) / secs
			}
			if rep == 0 || cur.NsPerOp < br.NsPerOp {
				br.NsPerOp, br.RunsPerSec = cur.NsPerOp, cur.RunsPerSec
			}
			if rep == 0 || cur.AllocsPerOp < br.AllocsPerOp {
				br.AllocsPerOp, br.BytesPerOp = cur.AllocsPerOp, cur.BytesPerOp
			}
			if rep == 0 {
				br.ID, br.Runs = cur.ID, cur.Runs
			}
		}
		if ex.id == "city" && cityML4 != nil {
			br.MTTDP50Ns = int64(cityML4.MTTD.P50)
			br.MTTDP99Ns = int64(cityML4.MTTD.P99)
			br.MTTRP50Ns = int64(cityML4.MTTR.P50)
			br.MTTRP99Ns = int64(cityML4.MTTR.P99)
		}
		if ex.id == "serve" && serveRep != nil {
			br.LatP50Ns = int64(serveRep.Latency.P50)
			br.LatP99Ns = int64(serveRep.Latency.P99)
		}
		if b, ok := syncBytes[ex.id]; ok {
			br.SyncBytes = b
		}
		fmt.Fprintln(ew)
		ran++
		benches = append(benches, br)
	}
	if ran == 0 && *trace == "" {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	if *trace != "" {
		if err := writeTrace(cfg, *trace, ew); err != nil {
			return err
		}
	}
	if *outPath != "" {
		if err := writeBench(*outPath, benches); err != nil {
			return err
		}
		fmt.Fprintf(ew, "bench: %d experiment measurements written to %s\n", len(benches), *outPath)
	}
	if ew.err != nil {
		return fmt.Errorf("writing output: %w", ew.err)
	}
	return nil
}

// writeBench writes the benchmark JSON, surfacing create, encode, and
// close errors — a truncated bench file would silently pass the CI
// regression gate.
func writeBench(path string, benches []benchResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchFile{Schema: benchSchema, Benches: benches}); err != nil {
		f.Close()
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return f.Close()
}

// writeTrace runs a short disrupted ML4 scenario with a trace
// collector attached and writes the Chrome trace-event JSON.
func writeTrace(cfg core.ScenarioConfig, path string, out io.Writer) error {
	cfg.Duration = 5 * time.Minute
	sys := core.NewSystem(cfg, core.ML4)
	tc := obs.Collect(sys.Bus())
	sys.Run()
	tc.Close()
	if err := tc.WriteChromeTraceFile(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: %d events from a 5m ML4 run written to %s\n", tc.Len(), path)
	return nil
}
