package mape

import (
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/verify"
)

// testLoop builds a loop on a manual clock with one requirement
// temp_ok derived from fact "temp" < 25.
func testLoop(now *time.Duration) *Loop {
	clock := func() time.Duration { return *now }
	k := NewKnowledge("n1", clock)
	l := NewLoop(k, clock)
	l.AddRule(PropRule{Prop: "temp_ok", Eval: func(k *Knowledge) bool {
		v, ok := k.GetFloat("temp")
		return ok && v < 25
	}})
	l.AddRequirement(&model.Requirement{ID: "R1", Prop: "temp_ok"})
	return l
}

// satisfied reports whether requirement id held in the loop's last
// cycle.
func satisfied(l *Loop, id model.RequirementID) bool {
	for _, r := range l.reqs {
		if r.ID == id {
			return l.lastObs[r.Prop]
		}
	}
	return false
}

func TestKnowledgePutGet(t *testing.T) {
	var now time.Duration
	k := NewKnowledge("n1", func() time.Duration { return now })
	k.Put("x", 42)
	if v, ok := k.Get("x"); !ok || v != 42 {
		t.Fatalf("Get = %v/%v", v, ok)
	}
	if _, ok := k.Get("ghost"); ok {
		t.Fatal("ghost fact found")
	}
}

func TestKnowledgeGetFloatConversions(t *testing.T) {
	var now time.Duration
	k := NewKnowledge("n1", func() time.Duration { return now })
	for key, val := range map[string]any{
		"f64": float64(1.5), "f32": float32(2), "int": 3, "i64": int64(4), "u64": uint64(5),
	} {
		k.Put(key, val)
		if _, ok := k.GetFloat(key); !ok {
			t.Fatalf("GetFloat(%s) failed", key)
		}
	}
	k.Put("str", "nope")
	if _, ok := k.GetFloat("str"); ok {
		t.Fatal("GetFloat on string succeeded")
	}
	if _, ok := k.GetFloat("ghost"); ok {
		t.Fatal("GetFloat on missing key succeeded")
	}
}

func TestCycleDetectsViolationAndRecovery(t *testing.T) {
	var now time.Duration
	l := testLoop(&now)
	// The planner sees each cycle's issues; it only runs when there are
	// any, so a cycle that leaves lastIssues nil found none.
	var lastIssues []Issue
	l.SetPlanner(func(_ *Knowledge, issues []Issue) []Action { lastIssues = issues; return nil })
	cycle := func() { lastIssues = nil; l.Cycle() }

	l.Knowledge().Put("temp", 22.0)
	cycle()
	if len(lastIssues) != 0 {
		t.Fatalf("issues = %v, want none", lastIssues)
	}
	if !satisfied(l, "R1") {
		t.Fatal("R1 should be satisfied")
	}

	now = 10 * time.Second
	l.Knowledge().Put("temp", 30.0)
	cycle()
	if len(lastIssues) != 1 || lastIssues[0].Requirement != "R1" {
		t.Fatalf("issues = %v, want [R1]", lastIssues)
	}

	now = 25 * time.Second
	l.Knowledge().Put("temp", 20.0)
	cycle()
	if len(lastIssues) != 0 {
		t.Fatalf("issues after recovery = %v", lastIssues)
	}
	st := l.Stats()
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.Recoveries)
	}
	if st.TotalRecovery != 15*time.Second {
		t.Fatalf("TotalRecovery = %v, want 15s (violated at 10s, recovered at 25s)", st.TotalRecovery)
	}
}

func TestPlanAndExecute(t *testing.T) {
	var now time.Duration
	l := testLoop(&now)
	var executed []Action
	l.SetPlanner(func(_ *Knowledge, issues []Issue) []Action {
		var out []Action
		for _, is := range issues {
			out = append(out, Action{Name: "cool", Target: string(is.Requirement)})
		}
		return out
	})
	l.SetExecutor(func(k *Knowledge, a Action) bool {
		executed = append(executed, a)
		k.Put("temp", 20.0) // the action fixes the environment
		return true
	})

	l.Knowledge().Put("temp", 30.0)
	l.Cycle()
	if len(executed) != 1 || executed[0].Name != "cool" {
		t.Fatalf("executed = %v", executed)
	}
	l.Cycle()
	if len(executed) != 1 {
		t.Fatal("planner ran again although requirement recovered")
	}
	st := l.Stats()
	if st.ActionsExecuted != 1 || st.ActionsFailed != 0 || st.Cycles != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailedActionsCounted(t *testing.T) {
	var now time.Duration
	l := testLoop(&now)
	l.SetPlanner(func(_ *Knowledge, _ []Issue) []Action { return []Action{{Name: "noop"}} })
	l.SetExecutor(func(*Knowledge, Action) bool { return false })
	l.Knowledge().Put("temp", 99.0)
	l.Cycle()
	if st := l.Stats(); st.ActionsFailed != 1 || st.ActionsExecuted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMonitorFeedsKnowledge(t *testing.T) {
	var now time.Duration
	l := testLoop(&now)
	sensor := 21.0
	l.AddMonitor(func(k *Knowledge) { k.Put("temp", sensor) })
	l.Cycle()
	if !satisfied(l, "R1") {
		t.Fatal("monitor did not feed knowledge")
	}
	sensor = 40
	l.Cycle()
	if satisfied(l, "R1") {
		t.Fatal("stale satisfaction")
	}
}

func TestRuntimeMonitorVerdicts(t *testing.T) {
	var now time.Duration
	clock := func() time.Duration { return *(&now) }
	k := NewKnowledge("n1", clock)
	l := NewLoop(k, clock)
	l.AddRule(PropRule{Prop: "p", Eval: func(k *Knowledge) bool {
		v, _ := k.GetFloat("x")
		return v > 0
	}})
	// Requirement with a bounded response property: F<=1 p.
	l.AddRequirement(&model.Requirement{
		ID: "R", Prop: "p",
		Temporal: verify.LEventuallyWithin(1, verify.LAP("p")),
	})
	l.Cycle() // x unset → p false, F<=1 pending
	if v := l.runtime["R"].Verdict(); v != verify.VerdictUnknown {
		t.Fatalf("verdict = %v", v)
	}
	l.Cycle() // deadline missed → false
	if v := l.runtime["R"].Verdict(); v != verify.VerdictFalse {
		t.Fatalf("verdict = %v, want false", v)
	}
}

// --- knowledge sharing over the network ---

func TestSyncerSharesKnowledge(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(1))
	epA := sim.AddNode("a")
	epB := sim.AddNode("b")

	la := NewLoop(NewKnowledge("a", sim.Now), sim.Now)
	lb := NewLoop(NewKnowledge("b", sim.Now), sim.Now)
	NewSyncer(epA, la, []simnet.NodeID{"b"}, 100*time.Millisecond).Start()
	NewSyncer(epB, lb, []simnet.NodeID{"a"}, 100*time.Millisecond).Start()

	la.Knowledge().Put("zone1/temp", 22.5)
	sim.RunUntil(time.Second)

	if v, ok := lb.Knowledge().GetFloat("zone1/temp"); !ok || v != 22.5 {
		t.Fatalf("peer knowledge = %v/%v", v, ok)
	}
}

func TestSyncerSurvivesPartition(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(2))
	epA := sim.AddNode("a")
	epB := sim.AddNode("b")
	la := NewLoop(NewKnowledge("a", sim.Now), sim.Now)
	lb := NewLoop(NewKnowledge("b", sim.Now), sim.Now)
	NewSyncer(epA, la, []simnet.NodeID{"b"}, 100*time.Millisecond).Start()
	NewSyncer(epB, lb, []simnet.NodeID{"a"}, 100*time.Millisecond).Start()

	sim.Partition([]simnet.NodeID{"a"}, []simnet.NodeID{"b"})
	sim.RunUntil(500 * time.Millisecond)
	la.Knowledge().Put("k", 1.0)
	sim.RunUntil(2 * time.Second)
	if _, ok := lb.Knowledge().Get("k"); ok {
		t.Fatal("knowledge crossed a partition")
	}

	// After healing, a *new* write flows; the old one was shipped into
	// the void (deltas are fire-and-forget; newer facts supersede).
	sim.HealPartition()
	la.Knowledge().Put("k", 2.0)
	sim.RunUntil(4 * time.Second)
	if v, ok := lb.Knowledge().GetFloat("k"); !ok || v != 2.0 {
		t.Fatalf("post-heal knowledge = %v/%v", v, ok)
	}
}

func TestSyncerQuiescentAfterConvergence(t *testing.T) {
	// Regression for the lastSent watermark: once both loops converge
	// and stop writing, no further sync traffic flows. The old
	// watermark (MaxTimestamp() without the -1 guard, and no version
	// short-circuit) re-shipped the boundary entries every round
	// forever.
	sim := simnet.New(simnet.WithSeed(3))
	epA := sim.AddNode("a")
	epB := sim.AddNode("b")
	la := NewLoop(NewKnowledge("a", sim.Now), sim.Now)
	lb := NewLoop(NewKnowledge("b", sim.Now), sim.Now)
	NewSyncer(epA, la, []simnet.NodeID{"b"}, 100*time.Millisecond).Start()
	NewSyncer(epB, lb, []simnet.NodeID{"a"}, 100*time.Millisecond).Start()

	la.Knowledge().Put("zone1/temp", 22.5)
	lb.Knowledge().Put("zone2/temp", 19.0)
	sim.RunUntil(time.Second)
	if _, ok := lb.Knowledge().Get("zone1/temp"); !ok {
		t.Fatal("knowledge did not converge")
	}

	// Converged and quiescent: many more rounds, zero sends.
	before := sim.Stats().Sent
	sim.RunUntil(5 * time.Second)
	if got := sim.Stats().Sent; got != before {
		t.Fatalf("converged syncers sent %d extra messages", got-before)
	}

	// A new write resumes sharing.
	la.Knowledge().Put("zone3/temp", 30.0)
	sim.RunUntil(6 * time.Second)
	if v, ok := lb.Knowledge().GetFloat("zone3/temp"); !ok || v != 30.0 {
		t.Fatalf("post-quiescence write did not flow: %v/%v", v, ok)
	}
}

func TestSyncMsgSize(t *testing.T) {
	empty := syncMsg{}
	if empty.Size() != 8 {
		t.Fatalf("empty size = %d", empty.Size())
	}
	// Sizing is per-entry and accurate, not a flat per-entry guess: the
	// key and value payloads count.
	entries := []crdt.Entry{
		{Key: "zone0/temp", Value: 21.5, Replica: "gw-0"},
		{Key: "k", Value: "hello", Replica: "gw-11"},
	}
	msg := syncMsg{Entries: entries}
	if got, want := msg.Size(), 8+crdt.EntriesSize(entries); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
	short := syncMsg{Entries: entries[:1]}
	if msg.Size()-short.Size() != crdt.EntrySize(entries[1]) {
		t.Fatalf("second entry not sized by its own payload")
	}
}
