package pubsub

import (
	"testing"
	"time"

	"repro/internal/simnet"
)

// rig builds a broker on "broker" and n clients on "c0".."cN-1".
func rig(t *testing.T, sim *simnet.Sim, n int) (*Broker, []*Client) {
	t.Helper()
	b := NewBroker(sim.AddNode("broker"))
	cs := make([]*Client, n)
	for i := 0; i < n; i++ {
		id := simnet.NodeID("c" + string(rune('0'+i)))
		cs[i] = NewClient(sim.AddNode(id), "broker", ClientConfig{})
	}
	return b, cs
}

func TestPublishSubscribe(t *testing.T) {
	sim := simnet.New()
	_, cs := rig(t, sim, 2)
	var got []any
	cs[1].Subscribe("temp", func(_ string, p any) { got = append(got, p) })
	sim.RunUntil(100 * time.Millisecond)

	cs[0].Publish("temp", 21.5, AtMostOnce)
	sim.RunUntil(200 * time.Millisecond)
	if len(got) != 1 || got[0] != 21.5 {
		t.Fatalf("got %v", got)
	}
}

func TestPublisherDoesNotReceiveOwnMessage(t *testing.T) {
	sim := simnet.New()
	_, cs := rig(t, sim, 1)
	got := 0
	cs[0].Subscribe("t", func(string, any) { got++ })
	sim.RunUntil(100 * time.Millisecond)
	cs[0].Publish("t", "x", AtMostOnce)
	sim.RunUntil(200 * time.Millisecond)
	if got != 0 {
		t.Fatal("publisher received its own publication")
	}
}

func TestFanOut(t *testing.T) {
	sim := simnet.New()
	b, cs := rig(t, sim, 4)
	counts := make([]int, 4)
	for i := 1; i < 4; i++ {
		i := i
		cs[i].Subscribe("news", func(string, any) { counts[i]++ })
	}
	sim.RunUntil(100 * time.Millisecond)
	if subs := b.subs["news"].ids; len(subs) != 3 {
		t.Fatalf("subscribers = %v", subs)
	}
	cs[0].Publish("news", "hello", AtMostOnce)
	sim.RunUntil(200 * time.Millisecond)
	for i := 1; i < 4; i++ {
		if counts[i] != 1 {
			t.Fatalf("client %d got %d, want 1", i, counts[i])
		}
	}
}

func TestQoS1AckStopsRetries(t *testing.T) {
	sim := simnet.New()
	_, cs := rig(t, sim, 2)
	got := 0
	cs[1].Subscribe("t", func(string, any) { got++ })
	sim.RunUntil(50 * time.Millisecond)
	cs[0].Publish("t", "x", AtLeastOnce)
	sim.RunUntil(5 * time.Second)
	if got != 1 {
		t.Fatalf("delivered %d, want exactly 1 (no spurious retries)", got)
	}
	if n := len(cs[0].pending); n != 0 {
		t.Fatalf("%d publications still awaiting their ack", n)
	}
}

func TestQoS1RetriesThroughLossyLink(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(7))
	_, cs := rig(t, sim, 2)
	got := 0
	cs[1].Subscribe("t", func(string, any) { got++ })
	sim.RunUntil(50 * time.Millisecond)

	// 70% loss on the publisher's uplink: QoS 0 will often vanish,
	// QoS 1 retries until one gets through.
	sim.SetLink("c0", "broker", time.Millisecond, 0.7)
	cs[0].Publish("t", "will-retry", AtLeastOnce)
	sim.RunUntil(10 * time.Second)
	if got < 1 {
		t.Fatal("QoS1 publication never arrived despite retries")
	}
}

func TestQoS1GivesUpAfterMaxRetries(t *testing.T) {
	sim := simnet.New()
	b := NewBroker(sim.AddNode("broker"))
	c := NewClient(sim.AddNode("c0"), "broker", ClientConfig{RetryInterval: 100 * time.Millisecond, MaxRetries: 3})
	_ = b
	sim.DegradeLink("c0", "broker", time.Millisecond, 1.0)
	c.Publish("t", "x", AtLeastOnce)
	sim.RunUntil(10 * time.Second)
	if len(c.pending) != 1 {
		t.Fatal("ack through a cut link")
	}
	if sim.Pending() != 0 {
		t.Fatalf("retry timers still pending: %d", sim.Pending())
	}
}

func TestBrokerCrashLosesSubscriptions(t *testing.T) {
	sim := simnet.New()
	b, cs := rig(t, sim, 2)
	got := 0
	cs[1].Subscribe("t", func(string, any) { got++ })
	sim.RunUntil(50 * time.Millisecond)

	sim.SetDown("broker", true)
	sim.RunUntil(100 * time.Millisecond)
	sim.SetDown("broker", false)
	sim.RunUntil(150 * time.Millisecond)

	cs[0].Publish("t", "after-restart", AtMostOnce)
	sim.RunUntil(300 * time.Millisecond)
	if got != 0 {
		t.Fatal("subscription survived broker restart (should be lost)")
	}
	if b.subs["t"] != nil {
		t.Fatal("broker retained subscribers across restart")
	}
}

func TestClientCrashResubscribes(t *testing.T) {
	sim := simnet.New()
	_, cs := rig(t, sim, 2)
	got := 0
	cs[1].Subscribe("t", func(string, any) { got++ })
	sim.RunUntil(50 * time.Millisecond)

	sim.SetDown("c1", true)
	sim.RunUntil(100 * time.Millisecond)
	sim.SetDown("c1", false) // OnUp → resubscribe
	sim.RunUntil(200 * time.Millisecond)

	cs[0].Publish("t", "x", AtMostOnce)
	sim.RunUntil(400 * time.Millisecond)
	if got != 1 {
		t.Fatalf("got %d after client restart, want 1", got)
	}
}

func TestPublishWhileBrokerDownIsLost(t *testing.T) {
	sim := simnet.New()
	_, cs := rig(t, sim, 2)
	got := 0
	cs[1].Subscribe("t", func(string, any) { got++ })
	sim.RunUntil(50 * time.Millisecond)
	sim.SetDown("broker", true)
	cs[0].Publish("t", "lost", AtMostOnce)
	sim.RunUntil(100 * time.Millisecond)
	sim.SetDown("broker", false)
	sim.RunUntil(2 * time.Second)
	if got != 0 {
		t.Fatal("QoS0 message survived broker downtime")
	}
}

func TestRetainedMessageDeliveredOnSubscribe(t *testing.T) {
	sim := simnet.New()
	b, cs := rig(t, sim, 2)
	b.InjectRetained("state", "engaged")
	sim.RunUntil(100 * time.Millisecond)

	// A subscriber arriving *after* the publication still learns the
	// retained state.
	var got []any
	cs[1].Subscribe("state", func(_ string, p any) { got = append(got, p) })
	sim.RunUntil(300 * time.Millisecond)
	if len(got) != 1 || got[0] != "engaged" {
		t.Fatalf("got %v, want retained value", got)
	}
}

func TestRetainedUpdatedByNewerPublication(t *testing.T) {
	sim := simnet.New()
	b, cs := rig(t, sim, 2)
	b.InjectRetained("state", "v1")
	sim.RunUntil(50 * time.Millisecond)
	b.InjectRetained("state", "v2")
	sim.RunUntil(100 * time.Millisecond)
	var got []any
	cs[1].Subscribe("state", func(_ string, p any) { got = append(got, p) })
	sim.RunUntil(300 * time.Millisecond)
	if len(got) != 1 || got[0] != "v2" {
		t.Fatalf("got %v, want [v2]", got)
	}
}

func TestRetainedLostOnBrokerRestart(t *testing.T) {
	sim := simnet.New()
	b, cs := rig(t, sim, 2)
	b.InjectRetained("state", "x")
	sim.RunUntil(50 * time.Millisecond)
	sim.SetDown("broker", true)
	sim.RunUntil(100 * time.Millisecond)
	sim.SetDown("broker", false)

	got := 0
	cs[1].Subscribe("state", func(string, any) { got++ })
	sim.RunUntil(300 * time.Millisecond)
	if got != 0 {
		t.Fatal("retained message survived broker restart")
	}
}

func TestRetainedNotRedeliveredOnDuplicateSubscribe(t *testing.T) {
	sim := simnet.New()
	b, cs := rig(t, sim, 2)
	b.InjectRetained("state", "x")
	sim.RunUntil(50 * time.Millisecond)
	got := 0
	h := func(string, any) { got++ }
	cs[1].Subscribe("state", h)
	sim.RunUntil(100 * time.Millisecond)
	cs[1].Subscribe("state", h) // keepalive re-subscribe
	sim.RunUntil(200 * time.Millisecond)
	if got != 1 {
		t.Fatalf("retained delivered %d times, want 1 (no redelivery on keepalive)", got)
	}
}

func TestInjectRetained(t *testing.T) {
	sim := simnet.New()
	b, cs := rig(t, sim, 2)
	b.InjectRetained("cfg", 42)
	var got []any
	cs[1].Subscribe("cfg", func(_ string, p any) { got = append(got, p) })
	sim.RunUntil(200 * time.Millisecond)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestTopicMatches(t *testing.T) {
	tests := []struct {
		pattern, topic string
		want           bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b/d", false},
		{"a/+/c", "a/b/c", true},
		{"a/+/c", "a/b/d", false},
		{"a/+/c", "a/b/x/c", false},
		{"+/+/+", "a/b/c", true},
		{"+", "a", true},
		{"+", "a/b", false},
		{"#", "anything/at/all", true},
		{"a/#", "a/b/c", true},
		{"a/#", "a", true},
		{"a/#", "b/c", false},
		{"a/b", "a", false},
		{"a", "a/b", false},
		{"zone/+/temp", "zone/3/temp", true},
	}
	for _, tt := range tests {
		if got := TopicMatches(tt.pattern, tt.topic); got != tt.want {
			t.Errorf("TopicMatches(%q, %q) = %v, want %v", tt.pattern, tt.topic, got, tt.want)
		}
	}
}

func TestWildcardSubscription(t *testing.T) {
	sim := simnet.New()
	_, cs := rig(t, sim, 2)
	var got []string
	cs[1].Subscribe("zone/+/temp", func(topic string, _ any) { got = append(got, topic) })
	sim.RunUntil(50 * time.Millisecond)
	cs[0].Publish("zone/1/temp", 20.0, AtMostOnce)
	cs[0].Publish("zone/2/temp", 21.0, AtMostOnce)
	cs[0].Publish("zone/1/occupancy", 3.0, AtMostOnce) // not matched
	sim.RunUntil(200 * time.Millisecond)
	if len(got) != 2 || got[0] != "zone/1/temp" || got[1] != "zone/2/temp" {
		t.Fatalf("got %v", got)
	}
}

func TestWildcardRetainedDelivery(t *testing.T) {
	sim := simnet.New()
	b, cs := rig(t, sim, 2)
	b.InjectRetained("zone/1/temp", 20.0)
	b.InjectRetained("zone/2/temp", 21.0)
	sim.RunUntil(50 * time.Millisecond)
	got := map[string]any{}
	cs[1].Subscribe("zone/#", func(topic string, p any) { got[topic] = p })
	sim.RunUntil(200 * time.Millisecond)
	if len(got) != 2 || got["zone/1/temp"] != 20.0 || got["zone/2/temp"] != 21.0 {
		t.Fatalf("got %v", got)
	}
}

func TestMessageSizes(t *testing.T) {
	if (subscribeMsg{Topic: "abc"}).Size() != 11 {
		t.Fatal("subscribe size")
	}
	p := publishMsg{Topic: "t", Payload: "anything"}
	if p.Size() != 16+1+64 {
		t.Fatalf("publish size = %d", p.Size())
	}
}

func TestMuxedClientAndBrokerCoexistWithOtherProtocols(t *testing.T) {
	sim := simnet.New()
	mb := simnet.NewPortMux(sim.AddNode("broker"))
	mc := simnet.NewPortMux(sim.AddNode("c0"))
	NewBroker(mb.Port("pubsub"))
	c := NewClient(mc.Port("pubsub"), "broker", ClientConfig{})
	other := 0
	mc.Port("other").OnMessage(func(simnet.NodeID, simnet.Message) { other++ })

	got := 0
	c.Subscribe("t", func(string, any) { got++ })
	sim.RunUntil(50 * time.Millisecond)
	mb.Port("pubsub").Send("c0", deliverMsg{Topic: "t", Payload: 1})
	sim.RunUntil(100 * time.Millisecond)
	if got != 1 || other != 0 {
		t.Fatalf("got=%d other=%d", got, other)
	}
}
