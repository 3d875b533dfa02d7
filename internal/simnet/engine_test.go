package simnet

import (
	"fmt"
	"testing"
	"time"
)

// withLanes is New with n shard lanes; zero means no WithShards at all.
func withLanes(n int, opts ...Option) *Sim {
	if n > 0 {
		opts = append(opts, WithShards(n))
	}
	return New(opts...)
}

// TestZeroLaneSurface pins what a Sim without WithShards answers on
// the surface callers written for shard lanes use unconditionally:
// "not sharded", from the same engine.
func TestZeroLaneSurface(t *testing.T) {
	s := New(WithSeed(3), WithDefaultLatency(time.Millisecond))
	a := s.AddNode("a")
	b := s.AddNode("b")
	if got := s.ShardCount(); got != 0 {
		t.Errorf("ShardCount() = %d, want 0", got)
	}
	s.SetShard("a", 5)       // out of range for any lane count: must be ignored
	s.SetShard("nobody", -1) // and so must an unknown node
	if got := a.node.ln.idx; got != 0 {
		t.Errorf("a's lane = %d, want 0", got)
	}
	if got := s.Lookahead(); got != 0 {
		t.Errorf("Lookahead() = %v, want 0", got)
	}
	if a.Rand() != s.Rand() || b.Rand() != s.Rand() {
		t.Error("Endpoint.Rand() is not the simulation's one shared stream")
	}

	inEvent := false
	b.OnMessage(func(NodeID, Message) {
		inEvent = true
		if lane, seq, ok := s.ExecContext(b); ok || lane != 0 || seq != 0 {
			t.Errorf("ExecContext inside an event = (%d, %d, %v), want (0, 0, false)", lane, seq, ok)
		}
		if b.Now() != s.Now() {
			t.Errorf("Endpoint.Now() = %v, Sim.Now() = %v", b.Now(), s.Now())
		}
	})
	a.Send("b", "x")
	a.Send("nobody", "x")
	s.Run()
	if !inEvent {
		t.Fatal("message was not delivered")
	}
	if _, _, ok := s.ExecContext(nil); ok {
		t.Error("ExecContext(nil) ok = true, want false")
	}
	want := Stats{Sent: 2, Delivered: 1, Dropped: 1, Bytes: defaultMessageSize}
	if got := s.Stats(); got != want {
		t.Errorf("Stats() = %+v, want %+v", got, want)
	}
}

// TestRunUntilIntoThePast: a horizon earlier than now executes nothing
// and leaves every clock — the coordinator's and each node's lane's —
// where it was.
func TestRunUntilIntoThePast(t *testing.T) {
	for _, lanes := range []int{0, 1, 2} {
		s := withLanes(lanes)
		eps := []*Endpoint{s.AddNode("a"), s.AddNode("b")}
		if lanes == 2 {
			s.SetShard("b", 1)
		}
		s.RunUntil(10 * time.Second)
		fired := false
		eps[1].After(time.Second, func() { fired = true })
		s.RunUntil(3 * time.Second)
		if got := s.Now(); got != 10*time.Second {
			t.Errorf("lanes=%d: Sim.Now() = %v after RunUntil(3s), want 10s", lanes, got)
		}
		for _, ep := range eps {
			if got := ep.Now(); got != 10*time.Second {
				t.Errorf("lanes=%d: %s.Now() = %v after RunUntil(3s), want 10s", lanes, ep.ID(), got)
			}
		}
		if fired || s.Pending() != 1 {
			t.Errorf("lanes=%d: fired=%v pending=%d after RunUntil into the past, want false/1", lanes, fired, s.Pending())
		}
		s.RunUntil(11 * time.Second)
		if !fired {
			t.Errorf("lanes=%d: timer did not fire once the horizon passed it", lanes)
		}
	}
}

// TestHotPathsDoNotAllocate asserts the property the engine's inline
// payloads exist for: in steady state an envelope send plus its
// delivery — through a mux port or a raw endpoint — and an AfterArg
// timer plus its firing, allocate nothing, with and without shard
// lanes.
func TestHotPathsDoNotAllocate(t *testing.T) {
	for _, lanes := range []int{0, 1} {
		s := withLanes(lanes, WithDefaultLatency(time.Millisecond))
		rawA, rawB := s.AddNode("a"), s.AddNode("b")
		a, b := NewPortMux(rawA).Port("p"), NewPortMux(rawB).Port("p")
		var got uint64
		b.OnEnvelope(func(_ NodeID, env *Envelope) { got += env.A })
		rawB.OnEnvelope(func(_ NodeID, env *Envelope) { got += env.A })
		onTimer := func(arg uint64) { got += arg }

		cases := []struct {
			name string
			op   func()
		}{
			{"envelope send+deliver", func() {
				a.SendEnvelope("b", Envelope{Kind: 1, A: 1, Bytes: 24})
				s.Run()
			}},
			{"raw envelope send+deliver", func() {
				rawA.SendEnvelope("b", Envelope{Kind: 1, A: 1, Bytes: 24})
				s.Run()
			}},
			{"AfterArg schedule+fire", func() {
				a.AfterArg(time.Millisecond, onTimer, 1)
				s.Run()
			}},
		}
		for _, c := range cases {
			for i := 0; i < 2*timerChunk; i++ { // warm the arenas and wheel buckets
				c.op()
			}
			before := got
			if allocs := testing.AllocsPerRun(200, c.op); allocs != 0 {
				t.Errorf("lanes=%d: %s allocates %v per run, want 0", lanes, c.name, allocs)
			}
			if got == before {
				t.Fatalf("lanes=%d: %s did no work", lanes, c.name)
			}
		}
	}
}

// TestStatsSumAcrossLanes: traffic is counted on the lane that handles
// it; the total must not depend on how nodes are spread over lanes.
func TestStatsSumAcrossLanes(t *testing.T) {
	var want Stats
	for _, lanes := range []int{0, 1, 3} {
		s := withLanes(lanes, WithDefaultLatency(time.Millisecond))
		eps := make([]*Endpoint, 6)
		for i := range eps {
			id := NodeID(fmt.Sprintf("n%d", i))
			eps[i] = s.AddNode(id)
			if lanes > 0 {
				s.SetShard(id, i%lanes)
			}
			eps[i].OnMessage(func(NodeID, Message) {})
		}
		s.SetDown("n5", true)
		for i, ep := range eps {
			ep.Send(eps[(i+1)%len(eps)].ID(), sizedMsg{n: 10 + i})
		}
		s.RunUntil(time.Second)
		got := s.Stats()
		if lanes == 0 {
			want = got
			if want.Sent != 5 || want.Delivered != 4 || want.Dropped != 1 {
				t.Fatalf("zero lanes: Stats() = %+v", want)
			}
			continue
		}
		if got != want {
			t.Errorf("lanes=%d: Stats() = %+v, zero lanes %+v", lanes, got, want)
		}
	}
}
