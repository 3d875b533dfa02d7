package main

import (
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/observatory"
)

var archetypes = []core.Archetype{core.ML1, core.ML2, core.ML3, core.ML4}

// corpusDir is relative to bench/, where run.sh and `go run .` start
// the program.
const corpusDir = "../corpus/chaos"

// simJob is one NewSystem + Run, timed from outside.
type simJob struct {
	setup, wall, cpu time.Duration // cpu and wall cover Run alone
	rep              core.Report
	sys              *core.System
}

func runSim(cfg core.ScenarioConfig, arch core.Archetype) simJob {
	t0 := time.Now()
	sys := core.NewSystem(cfg, arch)
	t1, c1 := time.Now(), cpuTime()
	rep := sys.Run()
	return simJob{setup: t1.Sub(t0), wall: time.Since(t1), cpu: cpuTime() - c1, rep: rep, sys: sys}
}

// devices counts the simulated devices of a scenario.
func devices(cfg core.ScenarioConfig) int {
	return cfg.Zones*(cfg.TempSensorsPerZone+3+cfg.BackupActuators) + cfg.Cloudlets + 1
}

// simTotals accumulates the boundary counts of the measured runs.
type simTotals struct {
	wall    time.Duration
	cpu     time.Duration
	vsec    float64
	msgs    int
	bytes   int
	journal int
	frames  int
	entries int
	acks    int
	sync    int
}

func (t *simTotals) add(j simJob, cfg core.ScenarioConfig) {
	t.wall += j.wall
	t.cpu += j.cpu
	t.vsec += cfg.Duration.Seconds()
	t.msgs += j.rep.Messages
	t.bytes += j.rep.Bytes
	t.journal += len(j.sys.Journal())
	t.frames += j.rep.SyncFrames
	t.entries += j.rep.SyncEntries
	t.acks += j.rep.SyncAcks
	t.sync += j.rep.SyncBytes
}

func (t *simTotals) into(r *run) {
	r.set("cpu_ms_per_work", t.cpu.Seconds()*1e3/t.vsec)
	r.set("wire_bytes_per_work", float64(t.bytes)/t.vsec)
	r.set("simnet.msgs", float64(t.msgs))
	r.set("simnet.msgs_per_wsec", float64(t.msgs)/t.wall.Seconds())
	r.set("simnet.wall_ns_per_msg", float64(t.wall)/float64(t.msgs))
	r.set("core.journal_events", float64(t.journal))
	r.set("sync.frames", float64(t.frames))
	r.set("sync.entries", float64(t.entries))
	r.set("sync.acks", float64(t.acks))
	r.set("sync.bytes", float64(t.sync))
}

// setupCost reports one construction's allocation and its time per
// thousand devices, and returns the time; it reads MemStats, so it
// stays outside the loops.
func setupCost(r *run, cfg core.ScenarioConfig, arch core.Archetype) time.Duration {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	sys := core.NewSystem(cfg, arch)
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	runtime.KeepAlive(sys)
	r.set("core.setup_alloc_mb", float64(b.TotalAlloc-a.TotalAlloc)/(1<<20))
	r.set("core.setup_ms_per_kdev", float64(d)/1e6/(float64(devices(cfg))/1000))
	return d
}

// runSimPaper runs the four-archetype matrix of the paper's Tables 1-2
// on consecutive scenario seeds until the time is up; timings are the
// median over the matrices.
func runSimPaper(r *run) {
	base := core.DefaultScenario()
	seedAt := func(i int) core.ScenarioConfig {
		cfg := base
		cfg.Seed = subSeed(r.seed, r.workload, "scenario", i)
		return cfg
	}

	// Same seed twice must give the same journal. This also warms the
	// process up before anything is timed.
	end := r.spans.begin("check", 0)
	h1 := runSim(seedAt(0), core.ML4).sys.JournalHash()
	h2 := runSim(seedAt(0), core.ML4).sys.JournalHash()
	r.check("determinism", h1 == h2, "journal hash %.12s vs %.12s", h1, h2)
	r.op(h1 == h2)
	setupCost(r, seedAt(0), core.ML4)
	end()

	var (
		tot               simTotals
		setups, rates     []float64
		goal              = map[core.Archetype][]float64{}
		start             = time.Now()
		limit             = time.Duration(r.seconds * float64(time.Second))
		vsecPerMatrix     = float64(len(archetypes)) * base.Duration.Seconds()
		endRun            = r.spans.begin("run", 0)
		matrixSetup, wall time.Duration
	)
	for i := 0; i == 0 || time.Since(start) < limit; i++ {
		cfg := seedAt(i)
		matrixSetup, wall = 0, 0
		for _, arch := range archetypes {
			j := runSim(cfg, arch)
			matrixSetup += j.setup
			wall += j.wall
			tot.add(j, cfg)
			goal[arch] = append(goal[arch], j.rep.GoalPersistence)
			r.op(true)
		}
		setups = append(setups, matrixSetup.Seconds())
		rates = append(rates, vsecPerMatrix/wall.Seconds())
	}
	endRun()

	r.set("setup_s", median(setups))
	r.count("setup_s", len(setups))
	r.set("work_per_s", median(rates))
	r.count("work_per_s", len(rates))
	tot.into(r)
	ml1, ml3, ml4 := mean(goal[core.ML1]), mean(goal[core.ML3]), mean(goal[core.ML4])
	r.set("core.R_goal", ml4)
	r.count("core.R_goal", len(goal[core.ML4]))

	end = r.spans.begin("check", 0)
	r.check("maturity-ordering", ml4 > ml3 && ml3 > ml1, "R_goal ML4 %.4f > ML3 %.4f > ML1 %.4f", ml4, ml3, ml1)
	r.check("ml4-floor", ml4 >= 0.95, "R_goal(ML4) %.4f >= 0.95", ml4)
	replayCorpus(r)
	end()
}

// replayCorpus replays every committed chaos counterexample; each must
// reproduce its failure and its journal hash.
func replayCorpus(r *run) {
	ces, err := chaos.LoadCorpus(corpusDir)
	if err != nil || len(ces) == 0 {
		r.check("corpus-replay", false, "load %s: %d entries, %v", corpusDir, len(ces), err)
		return
	}
	bad := 0
	var first error
	for _, ce := range ces {
		err := ce.Replay()
		r.op(err == nil)
		if err != nil && first == nil {
			first = err
		}
		if err != nil {
			bad++
		}
	}
	r.check("corpus-replay", bad == 0, "%d of %d entries reproduce (%v)", len(ces)-bad, len(ces), first)
}

// runSimCity runs the four-archetype matrix once at the city tier and
// analyzes the ML4 journal. The matrix is built three times so that
// setup_s is a median; the third build runs.
func runSimCity(r *run) {
	cfg := core.CityScenario()
	if r.quick {
		cfg = core.CityScenarioSmoke()
		cfg.Zones, cfg.Duration = 8, time.Minute
	}
	cfg.Seed = subSeed(r.seed, r.workload, "scenario", 0)

	var setups []float64
	endSetup := r.spans.begin("setup", 0)
	for k := 0; k < 2; k++ {
		t0 := time.Now()
		for _, arch := range archetypes {
			runtime.KeepAlive(core.NewSystem(cfg, arch))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupCost(r, cfg, core.ML4)
	runtime.GC()
	endSetup()

	var (
		tot   simTotals
		setup time.Duration
		ml4   simJob
		end   = r.spans.begin("run", 0)
	)
	for _, arch := range archetypes {
		j := runSim(cfg, arch)
		setup += j.setup
		tot.add(j, cfg)
		r.op(true)
		if arch == core.ML4 {
			ml4 = j
		}
	}
	end()
	setups = append(setups, setup.Seconds())

	end = r.spans.begin("hash", 0)
	hash := ml4.sys.JournalHash()
	end()
	end = r.spans.begin("analyze", 0)
	an := observatory.Analyze(ml4.sys.Journal(), observatory.Options{})
	end()

	r.set("setup_s", median(setups))
	r.count("setup_s", len(setups))
	r.set("work_per_s", tot.vsec/tot.wall.Seconds())
	tot.into(r)
	r.set("core.R_goal", ml4.rep.GoalPersistence)
	r.set("observatory.mttd_p99_vs", an.MTTD.P99.Seconds())
	r.set("observatory.mttr_p99_vs", an.MTTR.P99.Seconds())

	end = r.spans.begin("check", 0)
	r.check("journal-hashed", len(hash) == 64, "sha256 %.12s over %d events", hash, len(ml4.sys.Journal()))
	r.check("analysis-agrees", an.Unresolved == ml4.rep.UnresolvedViolations,
		"observatory unresolved %d == report %d; %d incidents", an.Unresolved, ml4.rep.UnresolvedViolations, len(an.Incidents))
	r.op(an.Unresolved == ml4.rep.UnresolvedViolations)
	end()
}

// runSimMetro runs ML4 on the sharded engine at one lane and at W
// lanes. The journal must not depend on the lane count.
func runSimMetro(r *run) {
	cfg := core.MetropolisScenarioSmoke()
	cfg.Zones = 250
	if r.quick {
		cfg.Zones, cfg.TempSensorsPerZone, cfg.Cloudlets = 12, 10, 4
	}
	cfg.Seed = subSeed(r.seed, r.workload, "scenario", 0)
	lanes := max(r.clients, 2) // one lane twice would not exercise the lanes
	one, many := cfg, cfg
	one.Shards, many.Shards = 1, lanes

	endSetup := r.spans.begin("setup", 0)
	setups := []float64{setupCost(r, many, core.ML4).Seconds()}
	runtime.GC()
	endSetup()

	end := r.spans.begin("run", 0)
	serial := runSim(one, core.ML4)
	end()
	hashSerial := serial.sys.JournalHash()
	serial.sys = nil
	runtime.GC()

	end = r.spans.begin("run", 0)
	sharded := runSim(many, core.ML4)
	end()
	r.op(true)
	r.op(true)
	setups = append(setups, serial.setup.Seconds(), sharded.setup.Seconds())

	var tot simTotals
	tot.add(sharded, many)
	r.set("setup_s", median(setups))
	r.count("setup_s", len(setups))
	r.set("work_per_s", tot.vsec/tot.wall.Seconds())
	tot.into(r)
	r.set("sim.shard_speedup", serial.wall.Seconds()/sharded.wall.Seconds())
	r.set("core.R_goal", sharded.rep.GoalPersistence)

	end = r.spans.begin("check", 0)
	hashSharded := sharded.sys.JournalHash()
	same := hashSerial == hashSharded
	r.check("shard-invariance", same, "journal hash at 1 lane %.12s, at %d lanes %.12s", hashSerial, lanes, hashSharded)
	r.op(same)
	end()
}
