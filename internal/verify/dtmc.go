package verify

import "fmt"

// DTMC is a discrete-time Markov chain for quantitative ("PCTL-style")
// analysis of resilience properties, e.g. "from the disrupted state,
// the system recovers within 10 steps with probability ≥ 0.99". Build
// with NewDTMC, AddState and SetProb. A state with no outgoing edges is
// absorbing.
type DTMC struct {
	labels []map[Prop]bool
	rows   []map[int]float64
}

// NewDTMC returns an empty chain.
func NewDTMC() *DTMC { return &DTMC{} }

// AddState appends a state labeled with props and returns its index.
func (d *DTMC) AddState(props ...Prop) int {
	lab := make(map[Prop]bool, len(props))
	for _, p := range props {
		lab[p] = true
	}
	d.labels = append(d.labels, lab)
	d.rows = append(d.rows, make(map[int]float64))
	return len(d.labels) - 1
}

// NumStates returns the number of states.
func (d *DTMC) NumStates() int { return len(d.labels) }

// SetProb sets the transition probability from→to. Setting 0 removes
// the edge.
func (d *DTMC) SetProb(from, to int, p float64) error {
	if from < 0 || from >= len(d.rows) || to < 0 || to >= len(d.rows) {
		return fmt.Errorf("verify: transition %d→%d out of range (n=%d)", from, to, len(d.rows))
	}
	if p < 0 || p > 1 {
		return fmt.Errorf("verify: probability %v out of [0,1]", p)
	}
	if p == 0 {
		delete(d.rows[from], to)
		return nil
	}
	d.rows[from][to] = p
	return nil
}

// statesWhere returns the states labeled with p.
func (d *DTMC) statesWhere(p Prop) map[int]bool {
	out := make(map[int]bool)
	for s := range d.labels {
		if d.labels[s][p] {
			out[s] = true
		}
	}
	return out
}

// ReachWithin returns, per state, the probability of reaching a
// target-labeled state within k steps (bounded reachability,
// P[F<=k target]).
func (d *DTMC) ReachWithin(target Prop, k int) []float64 {
	tgt := d.statesWhere(target)
	n := d.NumStates()
	cur := make([]float64, n)
	for s := range tgt {
		cur[s] = 1
	}
	for step := 0; step < k; step++ {
		next := make([]float64, n)
		for s := 0; s < n; s++ {
			if tgt[s] {
				next[s] = 1
				continue
			}
			row := d.rows[s]
			if len(row) == 0 { // absorbing
				next[s] = cur[s]
				continue
			}
			acc := 0.0
			for t, p := range row {
				acc += p * cur[t]
			}
			next[s] = acc
		}
		cur = next
	}
	return cur
}
