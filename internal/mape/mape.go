// Package mape implements the MAPE-K autonomic loop the paper places at
// the heart of runtime self-adaptation (§VII, Fig 5): Monitor gathers
// observations into a Knowledge base, Analyze evaluates requirement
// satisfaction (instantaneous propositions plus LTL3 runtime monitors
// from the verify package), Plan derives counteractions, and Execute
// applies them. The Knowledge base is a CRDT map, so loops can share
// knowledge epidemically (the "information sharing" decentralization
// pattern) and keep planning through partitions — analysis and planning
// placed on edge components, exactly as Figure 5 prescribes.
package mape

import (
	"sort"
	"time"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/verify"
)

// Knowledge is the K of MAPE-K: a replicated fact store plus derived
// propositions. Facts are timestamped LWW entries, so merging knowledge
// from other loops is conflict-free.
type Knowledge struct {
	data *crdt.LWWMap
	now  func() time.Duration
	// lastWrite implements a hybrid clock: writes are stamped with
	// max(now, lastWrite+1ns) so that a same-tick overwrite by the
	// local replica still wins under LWW resolution.
	lastWrite time.Duration
	// version counts applied changes (local wins and absorbed remote
	// wins), so a syncer can tell a quiescent knowledge base apart
	// from one with fresh facts without exporting anything.
	version uint64
}

// NewKnowledge creates a knowledge base owned by the given replica,
// reading time from now.
func NewKnowledge(replica crdt.ReplicaID, now func() time.Duration) *Knowledge {
	return &Knowledge{data: crdt.NewLWWMap(replica), now: now, lastWrite: -1}
}

// Put stores a fact at the current time (advanced by at least 1ns per
// write, so successive writes within one simulation instant keep their
// order).
func (k *Knowledge) Put(key string, value any) {
	ts := k.now()
	if ts <= k.lastWrite {
		ts = k.lastWrite + 1
	}
	k.lastWrite = ts
	if k.data.Set(key, value, ts) {
		k.version++
	}
}

// Get reads a fact.
func (k *Knowledge) Get(key string) (any, bool) {
	return k.data.Get(key)
}

// GetFloat reads a numeric fact, converting common numeric types.
func (k *Knowledge) GetFloat(key string) (float64, bool) {
	v, ok := k.data.Get(key)
	if !ok {
		return 0, false
	}
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint64:
		return float64(x), true
	default:
		return 0, false
	}
}

// Delta exports facts newer than ts for knowledge sharing.
func (k *Knowledge) Delta(ts time.Duration) []crdt.Entry { return k.data.Since(ts) }

// MaxTimestamp returns the newest fact's write time.
func (k *Knowledge) MaxTimestamp() time.Duration { return k.data.MaxTimestamp() }

// Absorb merges exported entries from another loop's knowledge.
func (k *Knowledge) Absorb(entries []crdt.Entry) {
	k.version += uint64(k.data.Apply(entries))
}

// Version returns the knowledge change counter; it advances on every
// applied local write and absorbed remote win.
func (k *Knowledge) Version() uint64 { return k.version }

// PropRule derives an atomic proposition from knowledge each cycle.
type PropRule struct {
	Prop verify.Prop
	Eval func(k *Knowledge) bool
}

// Issue is an analysis finding: a requirement currently violated.
type Issue struct {
	Requirement model.RequirementID
	Prop        verify.Prop
	// MonitorVerdict carries the LTL3 verdict of the requirement's
	// runtime monitor at detection time.
	MonitorVerdict verify.Verdict
}

// Action is a planned counteraction, interpreted by the executor.
type Action struct {
	Name   string
	Target string
	Value  any
}

// MonitorFunc feeds fresh observations into knowledge (the M phase).
type MonitorFunc func(k *Knowledge)

// PlanFunc maps issues to counteractions (the P phase).
type PlanFunc func(k *Knowledge, issues []Issue) []Action

// ExecuteFunc applies one action (the E phase). Returning false marks
// the action as failed in the loop's stats.
type ExecuteFunc func(k *Knowledge, a Action) bool

// Stats aggregates loop activity.
type Stats struct {
	Cycles          int
	IssuesDetected  int
	ActionsExecuted int
	ActionsFailed   int
	// Recoveries counts requirement violations that were later
	// observed satisfied again; TotalRecovery accumulates the time
	// from first violation to recovery (MTTR = TotalRecovery /
	// Recoveries).
	Recoveries    int
	TotalRecovery time.Duration
}

// Loop is one MAPE-K loop instance. Construct with NewLoop, register
// monitors/rules/requirements, then drive it with Cycle (typically from
// a simnet ticker owned by the hosting node).
type Loop struct {
	knowledge *Knowledge
	now       func() time.Duration

	monitors []MonitorFunc
	rules    []PropRule
	reqs     []*model.Requirement
	runtime  map[model.RequirementID]*verify.Monitor
	plan     PlanFunc
	execute  ExecuteFunc

	violatedSince map[model.RequirementID]time.Duration
	lastObs       map[verify.Prop]bool
	stats         Stats

	bus     *obs.Bus
	busNode string
}

// NewLoop builds a loop around an existing knowledge base.
func NewLoop(k *Knowledge, now func() time.Duration) *Loop {
	return &Loop{
		knowledge:     k,
		now:           now,
		runtime:       make(map[model.RequirementID]*verify.Monitor),
		violatedSince: make(map[model.RequirementID]time.Duration),
	}
}

// SetBus attaches an observability bus. Every Cycle is published as a
// "mape.cycle" span; detected issues ("mape.issue") and executed
// actions ("mape.execute") are parented on the cycle's span, so a
// trace shows which cycle found and fixed what. node labels the
// emitting loop (typically the hosting gateway/cloud node ID).
func (l *Loop) SetBus(bus *obs.Bus, node string) {
	l.bus = bus
	l.busNode = node
}

// Knowledge returns the loop's knowledge base.
func (l *Loop) Knowledge() *Knowledge { return l.knowledge }

// AddMonitor registers an M-phase observation source.
func (l *Loop) AddMonitor(m MonitorFunc) { l.monitors = append(l.monitors, m) }

// AddRule registers a proposition deriver.
func (l *Loop) AddRule(r PropRule) { l.rules = append(l.rules, r) }

// AddRequirement registers a requirement to analyze; its runtime LTL
// property gets a dedicated three-valued monitor.
func (l *Loop) AddRequirement(r *model.Requirement) {
	l.reqs = append(l.reqs, r)
	l.runtime[r.ID] = verify.NewMonitor(r.RuntimeProperty())
}

// SetPlanner installs the P phase.
func (l *Loop) SetPlanner(p PlanFunc) { l.plan = p }

// SetExecutor installs the E phase.
func (l *Loop) SetExecutor(e ExecuteFunc) { l.execute = e }

// Stats returns a copy of the loop's counters.
func (l *Loop) Stats() Stats { return l.stats }

// Cycle runs one full Monitor→Analyze→Plan→Execute pass.
func (l *Loop) Cycle() {
	l.stats.Cycles++
	span := l.bus.StartSpan("mape.cycle", l.busNode, 0)

	// Monitor.
	for _, m := range l.monitors {
		m(l.knowledge)
	}

	// Analyze: derive propositions, step runtime monitors, find issues.
	obs := make(map[verify.Prop]bool, len(l.rules))
	for _, r := range l.rules {
		obs[r.Prop] = r.Eval(l.knowledge)
	}
	l.lastObs = obs
	var issues []Issue
	for _, r := range l.reqs {
		mon := l.runtime[r.ID]
		mon.Step(obs)
		// Issues track *instantaneous* satisfaction: resilience is the
		// persistence of satisfaction, so a violated-then-recovered
		// requirement stops being an issue even though its invariant
		// monitor verdict latched false (the verdict is carried in the
		// Issue for diagnosis while violated).
		satisfied := obs[r.Prop]
		if satisfied {
			if since, was := l.violatedSince[r.ID]; was {
				l.stats.Recoveries++
				l.stats.TotalRecovery += l.now() - since
				delete(l.violatedSince, r.ID)
			}
			continue
		}
		if _, already := l.violatedSince[r.ID]; !already {
			l.violatedSince[r.ID] = l.now()
		}
		l.stats.IssuesDetected++
		if l.bus.Active() {
			l.bus.Emit("mape.issue", l.busNode, 0, span.ID, "%s violated (monitor %s)", r.ID, mon.Verdict())
		}
		issues = append(issues, Issue{Requirement: r.ID, Prop: r.Prop, MonitorVerdict: mon.Verdict()})
	}
	sort.Slice(issues, func(i, j int) bool { return issues[i].Requirement < issues[j].Requirement })

	// Plan.
	var actions []Action
	if l.plan != nil && len(issues) > 0 {
		actions = l.plan(l.knowledge, issues)
	}

	// Execute.
	if l.execute != nil {
		for _, a := range actions {
			ok := l.execute(l.knowledge, a)
			if ok {
				l.stats.ActionsExecuted++
			} else {
				l.stats.ActionsFailed++
			}
			if l.bus.Active() {
				l.bus.Emit("mape.execute", l.busNode, 0, span.ID, "%s target=%s ok=%v", a.Name, a.Target, ok)
			}
		}
	}

	span.End("issues=%d actions=%d", len(issues), len(actions))
}
