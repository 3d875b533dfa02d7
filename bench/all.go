package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// setFile is one set of runs: every workload once, untraced (the
// end-to-end metrics) or traced (the per-layer ledger).
type setFile struct {
	Schema    string            `json:"schema"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads map[string]result `json:"workloads"`
}

const setSchema = "riot-bench/set/v1"

// runAll runs every workload in its own child process: sets untraced
// sets, then a traced one if asked. It prints each run, how far the
// sets' end-to-end metrics lie apart against their bounds, and what
// tracing cost; with more than one set, or a traced one, it also writes
// them under out. The children's traces go to out/ whatever out is.
func runAll(seed int64, seconds float64, trace, quick bool, sets int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	oneSet := func(traced bool) setFile {
		set := setFile{Schema: setSchema, Seed: seed, Seconds: seconds, Traced: traced, Workloads: map[string]result{}}
		for _, w := range workloads {
			res, err := child(exe, w.Name, seed, seconds, traced, quick)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				code = 1
				continue
			}
			if !res.Correct {
				code = 1
			}
			set.Workloads[w.Name] = res
		}
		return set
	}
	var untraced []setFile
	for i := 1; i <= sets; i++ {
		set := oneSet(false)
		untraced = append(untraced, set)
		if sets > 1 {
			code = max(code, writeSet(out, fmt.Sprintf("set%d.json", i), set))
		}
	}
	if len(untraced) > 1 {
		printRepeatability(untraced[0], untraced[1])
	}
	if trace {
		ledger := oneSet(true)
		// What tracing cost: the headline metric under the profile and
		// the spans against the first untraced set's.
		for _, w := range workloads {
			res, ok := ledger.Workloads[w.Name]
			base := untraced[0].Workloads[w.Name].Metrics["work_per_s"].Value
			if !ok || base == 0 {
				continue
			}
			traced := res.Metrics["traced.work_per_s"].Value
			res.Metrics["trace.overhead_frac"] = value{1 - traced/base, "ratio"}
			fmt.Printf("%-12s trace.overhead_frac %8.4f  (work_per_s traced %.6g of untraced %.6g)\n",
				w.Name, 1-traced/base, traced, base)
		}
		code = max(code, writeSet(out, "ledger.json", ledger))
	}
	return code
}

func child(exe, workload string, seed int64, seconds float64, traced, quick bool) (result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace,
	}
	if quick {
		args = append(args, "--quick")
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("no result line (%v): %v", runErr, err)
	}
	return res, nil
}

func writeSet(dir, name string, set setFile) int {
	data, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return 0
}

// printRepeatability shows, per end-to-end metric and workload, how far
// two sets of the same code lie apart, against the metric's bound.
func printRepeatability(a, b setFile) {
	fmt.Printf("\n%-12s %-22s %14s %14s %9s %7s\n", "workload", "metric", "set1", "set2", "apart", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			x, y := a.Workloads[w.Name].Metrics[d.Name].Value, b.Workloads[w.Name].Metrics[d.Name].Value
			if x == 0 {
				continue
			}
			apart := (y - x) / x
			note := ""
			if apart > d.Bound || apart < -d.Bound {
				note = "  beyond the bound"
			}
			fmt.Printf("%-12s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.Name, d.Name, x, y, 100*apart, 100*d.Bound, note)
		}
	}
}
