package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Job is one unit of work for the experiment worker pool. Run receives
// the index of the worker executing it, so jobs can attribute their
// observability output (traces, metrics) to the worker that produced
// it.
type Job struct {
	ID  string
	Run func(worker int) error
}

// RunPool executes jobs on a pool of workers. Workers claim jobs in
// submission order via an atomic cursor; the first failing job stops
// the pool from dispatching further work (jobs already in flight
// finish), and its error is returned — by job order, so the reported
// error is deterministic even when several jobs fail concurrently.
// A panicking job is recovered and reported as that job's error.
//
// workers <= 0 selects GOMAXPROCS. With workers == 1 the pool degrades
// to a plain in-order loop, which is the serial baseline the
// determinism checks compare against.
func RunPool(workers int, jobs []Job) error {
	if len(jobs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, len(jobs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := runJob(jobs[i], worker); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("job %s: %w", jobs[i].ID, err)
		}
	}
	return nil
}

// runJob executes one job, converting a panic into an error so a
// single bad scenario cannot take down the whole campaign.
func runJob(j Job, worker int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return j.Run(worker)
}

// SeedRun is one seed's full maturity matrix: the reports and journal
// hashes in archetype order, plus which worker executed each run.
type SeedRun struct {
	Seed    int64
	Reports []core.Report
	Hashes  []string
	Workers []int
}

// MatrixCampaign fans the maturity matrix across seeds and workers:
// one job per (seed, archetype), each running a self-contained
// simulation. Every simulation owns its world — simulator, RNG, bus —
// so the journals (and their hashes) are byte-identical whether the
// campaign runs on one worker or many; only wall-clock time changes.
// Results are written into per-job slots, so no locking is needed.
func MatrixCampaign(cfg core.ScenarioConfig, seeds []int64, workers int) ([]SeedRun, error) {
	archs := core.AllArchetypes()
	runs := make([]SeedRun, len(seeds))
	jobs := make([]Job, 0, len(seeds)*len(archs))
	for si, seed := range seeds {
		runs[si] = SeedRun{
			Seed:    seed,
			Reports: make([]core.Report, len(archs)),
			Hashes:  make([]string, len(archs)),
			Workers: make([]int, len(archs)),
		}
		for ai, arch := range archs {
			si, ai, arch := si, ai, arch
			c := cfg
			c.Seed = seed
			jobs = append(jobs, Job{
				ID: fmt.Sprintf("seed%d/%s", seed, arch),
				Run: func(worker int) error {
					sys := core.NewSystem(c, arch)
					runs[si].Reports[ai] = sys.Run()
					runs[si].Hashes[ai] = sys.JournalHash()
					runs[si].Workers[ai] = worker
					return nil
				},
			})
		}
	}
	if err := RunPool(workers, jobs); err != nil {
		return nil, err
	}
	return runs, nil
}

// StatsFromRuns aggregates goal persistence per archetype from
// campaign results — the statistical version of the Table 1/2
// experiment, guarding the headline ordering against single-schedule
// luck.
func StatsFromRuns(runs []SeedRun) []ArchetypeStats {
	byArch := make(map[core.Archetype][]float64)
	for _, run := range runs {
		for _, r := range run.Reports {
			byArch[r.Archetype] = append(byArch[r.Archetype], r.GoalPersistence)
		}
	}
	return statsFromSamples(byArch)
}
