// Command riotbench regenerates every table and figure of the paper
// as measured experiments and prints them. Performance numbers and
// perf gates come from bench/ (bench/run.sh), not from here.
//
// Usage:
//
//	riotbench                      # all experiments, paper-scale parameters
//	riotbench -quick               # shortened parameters for a fast look
//	riotbench -only f3             # one experiment: table12, f1..f5, a1,
//	                               # a2, x1, x2, city
//	riotbench -parallel 4 -seeds 8 # fan the table12 campaign over workers
//	riotbench -shards 4            # four zone lanes in every run
//
// The city experiment runs the four-archetype matrix at the Figure-1
// city tier (200 gateways, 5009 devices; -quick swaps in the reduced
// smoke tier) and adds the ML4 run's incident latencies.
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
// windows.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/observatory"
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

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("riotbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shorter runs")
	only := fs.String("only", "", "run a single experiment: table12, f1..f5, a1, a2, x1, x2, city")
	seed := fs.Int64("seed", 1, "experiment seed")
	seedRuns := fs.Int("seeds", 1, "number of seeds for the table12 campaign (>1 adds mean/min/max rows)")
	parallel := fs.Int("parallel", 1, "worker count for the table12 campaign (0 = GOMAXPROCS)")
	hashes := fs.Bool("hashes", false, "print per-(seed,archetype) journal hashes for the table12 campaign")
	shards := fs.Int("shards", 0, "zone-shard lane count for every simulation; picks the journal family (0 = one lane, shared random stream: the pinned hashes; >= 1 = per-node streams, identical at any count, 1 = serial reference leg)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d: must be 0 or more", *shards)
	}
	if *seedRuns < 1 {
		return fmt.Errorf("-seeds %d: must be 1 or more", *seedRuns)
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

	all := []struct {
		id    string
		title string
		run   func(io.Writer) error
	}{
		{"table12", "Tables 1+2 — maturity matrix under the standard disruption schedule", func(w io.Writer) error {
			seeds := make([]int64, *seedRuns)
			for i := range seeds {
				seeds[i] = *seed + int64(i)
			}
			runs, err := experiments.MatrixCampaign(cfg, seeds, workers)
			if err != nil {
				return err
			}
			fmt.Fprint(w, core.FormatReports(runs[0].Reports))
			if len(seeds) > 1 {
				stats := experiments.StatsFromRuns(runs)
				fmt.Fprintf(w, "\naggregate over %d seeds:\n", len(seeds))
				fmt.Fprint(w, experiments.FormatTable12Stats(stats))
			}
			if *hashes {
				archs := core.AllArchetypes()
				for _, r := range runs {
					for ai, h := range r.Hashes {
						fmt.Fprintf(w, "journal seed=%d arch=%s %s\n", r.Seed, archs[ai], h)
					}
				}
			}
			return nil
		}},
		{"f1", "Figure 1 — landscape scale (edge-centric deployment, 1 virtual minute)", func(w io.Writer) error {
			fmt.Fprint(w, experiments.FormatFigure1(experiments.Figure1(*seed, zoneCounts, time.Minute)))
			return nil
		}},
		{"f2", "Figure 2 — model construction and resilience-property checking", func(w io.Writer) error {
			pts := experiments.Figure2([]int{4, 8, 12, 16}, 3)
			quants := experiments.Figure2Quantitative([]int{1, 2, 5, 10, 20})
			fmt.Fprint(w, experiments.FormatFigure2(pts, quants))
			return nil
		}},
		{"f3", "Figure 3 — centralized vs decentralized control under cloud downtime", func(w io.Writer) error {
			fmt.Fprint(w, experiments.FormatFigure3(experiments.Figure3(*seed, []float64{0, 0.2, 0.4, 0.6, 0.8})))
			return nil
		}},
		{"f4", "Figure 4 — cloud-mediated vs edge-governed data flows under WAN partitions", func(w io.Writer) error {
			fmt.Fprint(w, experiments.FormatFigure4(experiments.Figure4(*seed, []float64{0, 0.25, 0.5, 0.75})))
			return nil
		}},
		{"f5", "Figure 5 — MAPE loop placement (edge vs cloud) vs environment change rate", func(w io.Writer) error {
			fmt.Fprint(w, experiments.FormatFigure5(experiments.Figure5(*seed, []float64{1, 2, 4, 8})))
			return nil
		}},
		{"a1", "Ablation A1 — bolt-on resilience (hardened ML2) vs native ML4", func(w io.Writer) error {
			fmt.Fprint(w, core.FormatReports(experiments.AblationA1(cfg)))
			fmt.Fprintln(w, "(rows: ML2 plain, ML2 with bolt-on mechanisms, ML4 native)")
			return nil
		}},
		{"a2", "Ablation A2 — ML4 with one decentralization mechanism removed", func(w io.Writer) error {
			fmt.Fprint(w, experiments.FormatA2(experiments.AblationA2(cfg)))
			return nil
		}},
		{"x1", "Extension X1 — mobility: static binding vs nearest-edge handover", func(w io.Writer) error {
			fmt.Fprint(w, experiments.FormatMobility(experiments.ExtensionMobility(*seed, []float64{1, 2, 4, 8})))
			return nil
		}},
		{"x2", "Extension X2 — cost of resilience: ML4 sync interval vs R and traffic", func(w io.Writer) error {
			intervals := []time.Duration{time.Second, 2 * time.Second, 5 * time.Second, 15 * time.Second}
			fmt.Fprint(w, experiments.FormatCost(experiments.ExtensionCost(cfg, intervals)))
			return nil
		}},
		{"city", "City tier — maturity matrix at Figure-1 scale (200 gateways, 5009 devices)", func(w io.Writer) error {
			ccfg := core.CityScenario()
			if *quick {
				ccfg = core.CityScenarioSmoke()
			}
			ccfg.Seed = *seed
			// Run the matrix archetype by archetype (same order and
			// reports as core.RunMatrix) so the ML4 journal can be
			// analyzed for city-scale detection/recovery latencies.
			var reports []core.Report
			var ml4 observatory.Analysis
			for _, a := range core.AllArchetypes() {
				sys := core.NewSystem(ccfg, a)
				reports = append(reports, sys.Run())
				if a == core.ML4 {
					ml4 = observatory.Analyze(sys.Journal(), observatory.Options{
						Duration: ccfg.Duration, Zones: ccfg.Zones,
					})
				}
			}
			fmt.Fprint(w, core.FormatReports(reports))
			if ml4.MTTD.Count > 0 {
				fmt.Fprintf(w, "ML4 incidents: %d (%d unresolved)  MTTD p50=%s p99=%s  MTTR p50=%s p99=%s\n",
					len(ml4.Incidents), ml4.Unresolved,
					ml4.MTTD.P50.Round(time.Millisecond), ml4.MTTD.P99.Round(time.Millisecond),
					ml4.MTTR.P50.Round(time.Millisecond), ml4.MTTR.P99.Round(time.Millisecond))
			}
			return nil
		}},
	}

	ew := &errWriter{w: out}
	ran := false
	for _, ex := range all {
		if *only != "" && ex.id != *only {
			continue
		}
		ran = true
		fmt.Fprintf(ew, "=== %s ===\n", ex.title)
		if err := ex.run(ew); err != nil {
			return fmt.Errorf("experiment %s: %w", ex.id, err)
		}
		fmt.Fprintln(ew)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	if ew.err != nil {
		return fmt.Errorf("writing output: %w", ew.err)
	}
	return nil
}
