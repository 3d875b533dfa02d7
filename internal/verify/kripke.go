// Package verify provides the formal verification machinery the paper's
// modeling roadmap calls for (§IV, Fig 2): Kripke structures as the
// analyzable representation of a system facet, a CTL model checker for
// design-time verification of resilience properties, three-valued LTL
// runtime monitors (obtained by formula progression) that port the same
// properties to runtime (§VII), and discrete-time Markov chains for
// quantitative, probability-bounded properties ("uncertainty
// quantification" in the paper's terms).
package verify

import (
	"fmt"
	"sort"
)

// Prop is an atomic proposition name.
type Prop string

// Kripke is a finite transition system with propositional labels. Build
// with NewKripke, AddState and AddTransition.
type Kripke struct {
	labels  []map[Prop]bool
	trans   [][]int
	initial []int
}

// NewKripke returns an empty structure.
func NewKripke() *Kripke { return &Kripke{} }

// AddState appends a state labeled with the given propositions and
// returns its index.
func (k *Kripke) AddState(props ...Prop) int {
	lab := make(map[Prop]bool, len(props))
	for _, p := range props {
		lab[p] = true
	}
	k.labels = append(k.labels, lab)
	k.trans = append(k.trans, nil)
	return len(k.labels) - 1
}

// NumStates returns the number of states.
func (k *Kripke) NumStates() int { return len(k.labels) }

// AddTransition adds the edge from→to. Out-of-range indices are an
// error.
func (k *Kripke) AddTransition(from, to int) error {
	if from < 0 || from >= len(k.labels) || to < 0 || to >= len(k.labels) {
		return fmt.Errorf("verify: transition %d→%d out of range (n=%d)", from, to, len(k.labels))
	}
	k.trans[from] = append(k.trans[from], to)
	return nil
}

// SetInitial marks states as initial.
func (k *Kripke) SetInitial(states ...int) {
	k.initial = append(k.initial, states...)
}

// Initial returns the initial states.
func (k *Kripke) Initial() []int {
	out := make([]int, len(k.initial))
	copy(out, k.initial)
	return out
}

// Holds reports whether p labels state s.
func (k *Kripke) Holds(s int, p Prop) bool {
	return s >= 0 && s < len(k.labels) && k.labels[s][p]
}

// Successors returns the outgoing edges of s (shared slice; treat as
// read-only).
func (k *Kripke) Successors(s int) []int { return k.trans[s] }

// predecessors builds the reverse adjacency once for backward fixpoints.
func (k *Kripke) predecessors() [][]int {
	pred := make([][]int, len(k.labels))
	for s, outs := range k.trans {
		for _, t := range outs {
			pred[t] = append(pred[t], s)
		}
	}
	return pred
}

// StateSet is a set of state indices.
type StateSet map[int]bool

// Sorted returns the members in ascending order.
func (s StateSet) Sorted() []int {
	out := make([]int, 0, len(s))
	for i := range s {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
