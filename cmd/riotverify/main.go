// Command riotverify checks resilience properties of a software
// configuration model — the Figure 2 pipeline as a tool. The input is
// a JSON specification of components (with hosts, provided and
// required services), a failure assumption, and CTL properties over
// the derived propositions (svc:<name>, comp:<id>, all-up).
//
// Example specification (testdata/edge.json):
//
//	{
//	  "maxConcurrentFailures": 1,
//	  "components": [
//	    {"id": "sense-a", "host": "s1", "provides": ["sensing"]},
//	    {"id": "sense-b", "host": "s2", "provides": ["sensing"]},
//	    {"id": "ctrl", "host": "gw", "provides": ["control"],
//	     "requires": ["sensing"]}
//	  ],
//	  "properties": [
//	    {"name": "sensing-redundant", "formula": "AG svc:sensing"},
//	    {"name": "recoverable", "formula": "AG EF all-up"}
//	  ]
//	}
//
// maxConcurrentFailures bounds how many hosts may be down at once: an
// absent key means 1, 0 asks for the fault-free model, and a negative
// value is an error. So is a key the schema does not know.
//
// Usage:
//
//	riotverify spec.json
//	riotverify -          # read the specification from stdin
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/model"
	"repro/internal/verify"
)

// spec is the JSON input schema. An absent maxConcurrentFailures means
// one failure at a time; 0 asks for the fault-free model.
type spec struct {
	MaxConcurrentFailures *int            `json:"maxConcurrentFailures"`
	Components            []specComponent `json:"components"`
	Properties            []specProperty  `json:"properties"`
}

type specComponent struct {
	ID       string   `json:"id"`
	Host     string   `json:"host"`
	Provides []string `json:"provides"`
	Requires []string `json:"requires"`
}

type specProperty struct {
	Name    string `json:"name"`
	Formula string `json:"formula"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "riotverify:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: riotverify <spec.json | ->")
	}
	var data []byte
	var err error
	if args[0] == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(args[0])
	}
	if err != nil {
		return err
	}

	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("parsing specification: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("parsing specification: data after the top-level object")
	}
	if len(s.Components) == 0 {
		return fmt.Errorf("specification has no components")
	}
	if len(s.Properties) == 0 {
		return fmt.Errorf("specification has no properties")
	}

	cfg := model.NewConfiguration()
	for _, c := range s.Components {
		comp := model.Component{ID: model.ComponentID(c.ID), Host: c.Host}
		for _, p := range c.Provides {
			comp.Provides = append(comp.Provides, model.Service(p))
		}
		for _, r := range c.Requires {
			comp.Requires = append(comp.Requires, model.Service(r))
		}
		cfg.Add(comp)
	}

	maxDown := 1
	if s.MaxConcurrentFailures != nil {
		maxDown = *s.MaxConcurrentFailures
	}
	if maxDown < 0 {
		return fmt.Errorf("maxConcurrentFailures %d: must be 0 or more", maxDown)
	}
	k, err := model.FailureKripke(cfg, model.FailureModelOptions{MaxConcurrentFailures: maxDown})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "model: %d components on %d hosts, ≤%d concurrent failures → %d states\n",
		len(s.Components), len(cfg.Hosts()), maxDown, k.NumStates())

	failed := 0
	for _, p := range s.Properties {
		f, err := verify.ParseCTL(p.Formula)
		if err != nil {
			return fmt.Errorf("property %q: %w", p.Name, err)
		}
		holds := verify.Check(k, f)
		verdict := "HOLDS"
		if !holds {
			verdict = "FAILS"
			failed++
		}
		fmt.Fprintf(out, "%-7s %s: %s\n", verdict, p.Name, p.Formula)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d properties failed", failed, len(s.Properties))
	}
	return nil
}
