package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Comparing two versions: -compare takes pairs of set files, each pair
// one run of the parent and one of the change made back to back, and
// judges every (metric, workload) by the rule the choosing-metrics
// guide gives for a small sandbox. No minimum of N: a side is its
// median and quartiles, and a gain needs the pairs, not the best run.

// defaultBound judges per-layer metrics, which carry no bound of their own.
const defaultBound = 0.10

// minPairs is how many pairs a claimed gain needs.
const minPairs = 10

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// comparison is one (metric, workload) row.
type comparison struct {
	workload, metric string
	parent, change   []float64
	wins, losses     int
	verdict          verdict
}

// judge applies the rule. A change has improved a metric when it wins
// at least nine tenths of at least ten pairs, ties counting for
// neither, and the medians lie further apart than the parent's own
// quartiles. It has regressed it when its median is worse than the
// parent's by more than the bound. Otherwise the metric is unchanged —
// unless the parent's own spread is wider than the bound, in which case
// the runs cannot tell, and it is unresolved.
func judge(parent, change []float64, better string, bound float64) (v verdict, wins, losses int) {
	sign := 1.0 // positive difference = change is better
	if better == "lower" {
		sign = -1
	}
	n := min(len(parent), len(change))
	for i := 0; i < n; i++ {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	q1, pMed, q3 := quartiles(parent)
	_, cMed, _ := quartiles(change)
	gain := sign * (cMed - pMed)
	switch {
	case n >= minPairs && float64(wins) >= 0.9*float64(n) && gain > q3-q1:
		return improved, wins, losses
	case -gain > bound*math.Abs(pMed):
		return regressed, wins, losses
	case spread(parent) > bound:
		return unresolved, wins, losses
	}
	return unchanged, wins, losses
}

func loadSet(path string) (setFile, error) {
	var s setFile
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != setSchema {
		return s, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, setSchema)
	}
	return s, nil
}

// compareSets judges every metric and workload the pairs share.
func compareSets(parents, changes []setFile) []comparison {
	defs := map[string]metricDef{}
	for _, d := range perLayer {
		d.Bound = defaultBound
		defs[d.Name] = d
	}
	for _, d := range endToEnd {
		defs[d.Name] = d
	}
	var out []comparison
	for _, w := range workloads {
		var names []string
		for name := range parents[0].Workloads[w.Name].Metrics {
			if _, known := defs[name]; known {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			c := comparison{workload: w.Name, metric: name}
			for i := range parents {
				p, okP := parents[i].Workloads[w.Name].Metrics[name]
				ch, okC := changes[i].Workloads[w.Name].Metrics[name]
				if okP && okC {
					c.parent = append(c.parent, p.Value)
					c.change = append(c.change, ch.Value)
				}
			}
			if len(c.parent) == 0 || (median(c.parent) == 0 && median(c.change) == 0) {
				continue // a layer the workload does not use
			}
			d := defs[name]
			c.verdict, c.wins, c.losses = judge(c.parent, c.change, d.Better, d.Bound)
			out = append(out, c)
		}
	}
	return out
}

func compareMain(paths []string) int {
	if len(paths) < 2 || len(paths)%2 != 0 {
		fmt.Fprintln(os.Stderr, "bench -compare: want pairs of set files: PARENT.json CHANGE.json [PARENT2.json CHANGE2.json ...]")
		return 2
	}
	sets := make([]setFile, len(paths))
	for i, path := range paths {
		var err error
		if sets[i], err = loadSet(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench -compare:", err)
			return 2
		}
	}
	var parents, changes []setFile
	for i := 0; i < len(sets); i += 2 {
		parents, changes = append(parents, sets[i]), append(changes, sets[i+1])
	}
	gated := map[string]bool{}
	for _, d := range endToEnd {
		gated[d.Name] = true
	}
	code := 0
	fmt.Printf("%d pair(s); a gain needs %d. Every ratio is change/parent, with its base.\n", len(parents), minPairs)
	fmt.Printf("%-12s %-28s %38s %38s %18s %9s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio (base)", "won/lost", "verdict")
	for _, c := range compareSets(parents, changes) {
		pq1, pMed, pq3 := quartiles(c.parent)
		cq1, cMed, cq3 := quartiles(c.change)
		ratio := "-"
		if pMed != 0 {
			ratio = fmt.Sprintf("x%.3f (%.4g)", cMed/pMed, pMed)
		}
		fmt.Printf("%-12s %-28s %12.6g [%10.5g, %10.5g] %12.6g [%10.5g, %10.5g] %18s %5d/%-3d  %s\n",
			c.workload, c.metric, pMed, pq1, pq3, cMed, cq1, cq3, ratio, c.wins, c.losses, c.verdict)
		if c.verdict == regressed && gated[c.metric] {
			code = 1
		}
	}
	return code
}
