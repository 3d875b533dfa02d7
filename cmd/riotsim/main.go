// Command riotsim runs the smart-city scenario at one architecture
// maturity level and prints its resilience report.
//
// Usage:
//
//	riotsim -arch ML4 -zones 4 -duration 20m -seed 1 -preset standard
//
// -tier selects a scenario preset (default, city, city-smoke, metro,
// metro-smoke); -zones, -duration and -preset override it only when
// given explicitly, so the city tiers keep their heavy fault preset.
// -shards splits the simulation into zone lanes (DESIGN.md
// §11) and thereby picks the journal family: 0 is the single-lane
// family every pinned hash belongs to; -shards 1 is the serial
// reference leg of the per-node-stream family and higher counts execute
// zone lanes in parallel with a journal byte-identical to it, which
// -hash prints for differential checks (the metropolis-determinism CI
// job diffs these across shard counts):
//
//	riotsim -tier city-smoke -arch ML4 -shards 4 -hash
//
// With -trace the full observability event stream (faults, causal
// violation/recovery spans, gossip, Raft, MAPE cycles, actuations) is
// written as Chrome trace-event JSON, viewable in chrome://tracing or
// https://ui.perfetto.dev:
//
//	riotsim -arch ML4 -duration 5m -trace run.json
//
// -hardened turns on the full resilience profile (island mode,
// placement spreading, backup actuators, sticky failover) over whatever
// the tier and overrides chose. -explain follows the report with the
// run's explanation, derived from its journal without changing it:
// incident records (fault → detection → reactions → recovery, with
// MTTD/TTR), the per-zone R(t) timeline and MTTD/MTTR percentiles.
// With -trace as well, the incidents join the run's spans in the same
// trace file (zones as threads, incidents as spans):
//
//	riotsim -arch ML4 -hardened -explain -trace run.json
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run
// alone (construction and report formatting excluded), for
// `go tool pprof`:
//
//	riotsim -tier city -arch ML4 -cpuprofile cpu.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/observatory"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "riotsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("riotsim", flag.ContinueOnError)
	archName := fs.String("arch", "ML4", "architecture maturity level: ML1, ML2, ML3 or ML4")
	tier := fs.String("tier", "default", "scenario tier: default, city, city-smoke, metro or metro-smoke")
	zones := fs.Int("zones", 4, "number of zones")
	duration := fs.Duration("duration", 20*time.Minute, "virtual run duration")
	seed := fs.Int64("seed", 1, "simulation seed")
	shards := fs.Int("shards", 0, "zone-shard lane count; picks the journal family (0 = one lane, shared random stream: the pinned hashes; >= 1 = per-node streams, identical at any count, 1 = serial reference leg)")
	preset := fs.String("preset", "standard", "fault preset: standard, none or heavy (a named tier keeps its own unless this is given)")
	hardened := fs.Bool("hardened", false, "enable the full resilience profile (island mode, spread, backups, sticky failover)")
	matrix := fs.Bool("matrix", false, "run all four archetypes (Tables 1/2)")
	events := fs.Bool("events", false, "print the run journal (faults, placements, violations, alerts)")
	hash := fs.Bool("hash", false, "print the journal hash (per archetype with -matrix)")
	explain := fs.Bool("explain", false, "print the run's incidents, R(t) timeline and MTTD/MTTR (with -trace, also as trace spans)")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON file of the run")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run (for go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the run (for go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	cfg, err := core.ParseTier(*tier)
	if err != nil {
		return fmt.Errorf("-tier: %w", err)
	}
	// -zones, -duration and -preset defaults describe the default tier;
	// only apply them over a named tier when the user set them
	// explicitly.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	own := func(name string) bool { return strings.EqualFold(*tier, "default") || explicit[name] }
	if own("zones") {
		cfg.Zones = *zones
	}
	if own("duration") {
		cfg.Duration = *duration
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("-%w", err) // the flags are named like the settings
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d: must be 0 or more", *shards)
	}
	cfg.Seed = *seed
	cfg.Shards = *shards
	if own("preset") {
		switch strings.ToLower(*preset) {
		case "standard":
			cfg.Preset = core.FaultsStandard
		case "none":
			cfg.Preset = core.FaultsNone
		case "heavy":
			cfg.Preset = core.FaultsHeavy
		default:
			return fmt.Errorf("unknown preset %q", *preset)
		}
	}
	if *hardened {
		cfg = cfg.Hardened()
	}

	if *matrix {
		if *trace != "" || *cpuProfile != "" || *memProfile != "" || *events || *explain {
			return fmt.Errorf("-trace, -cpuprofile, -memprofile, -events and -explain need a single run; drop -matrix")
		}
		if *hash {
			for _, a := range core.AllArchetypes() {
				sys := core.NewSystem(cfg, a)
				sys.Run()
				fmt.Fprintf(out, "journal arch=%s %s\n", a, sys.JournalHash())
			}
			return nil
		}
		reports := core.RunMatrix(cfg)
		fmt.Fprint(out, core.FormatReports(reports))
		return nil
	}

	arch, err := core.ParseArchetype(*archName)
	if err != nil {
		return err
	}
	sys := core.NewSystem(cfg, arch)
	var tc *obs.TraceCollector
	if *trace != "" {
		tc = obs.Collect(sys.Bus())
	}
	report, err := runProfiled(sys, *cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	fmt.Fprint(out, report.String())
	if *hash {
		fmt.Fprintf(out, "journal %s\n", sys.JournalHash())
	}
	if *events {
		fmt.Fprintf(out, "\nrun journal (%d events):\n", len(sys.Journal()))
		fmt.Fprint(out, core.FormatJournal(sys.Journal()))
	}
	if *explain {
		a := observatory.Analyze(sys.Journal(), observatory.Options{Duration: cfg.Duration, Zones: cfg.Zones})
		fmt.Fprint(out, "\n"+observatory.FormatAnalysis(a))
		// Only the -trace collector listens; the journal is already final.
		observatory.PublishOverlay(a, sys.Bus())
	}
	if tc != nil {
		tc.Close()
		if err := tc.WriteChromeTraceFile(*trace); err != nil {
			return err
		}
		fmt.Fprintf(out, "\ntrace: %d events written to %s\n", tc.Len(), *trace)
	}
	return nil
}

// runProfiled is sys.Run under the CPU profile and followed by the
// allocation profile, each written only when its path is set.
func runProfiled(sys *core.System, cpuPath, memPath string) (core.Report, error) {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return core.Report{}, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return core.Report{}, err
		}
		cpu = f
	}
	report := sys.Run()
	if cpu != nil {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return report, err
		}
	}
	if memPath != "" {
		if err := writeAllocProfile(memPath); err != nil {
			return report, err
		}
	}
	return report, nil
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // fold the run's last allocations into the profile
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
