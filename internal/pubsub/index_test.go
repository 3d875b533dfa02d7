package pubsub

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
)

// scanModel is the broker's subscription table as it was before the
// index: pattern → subscriber set, matched by running TopicMatches
// against every pattern. It answers in the order the index promises
// (patterns sorted, then ids sorted), which the old table left to map
// hashing.
type scanModel map[string]map[simnet.NodeID]struct{}

func (m scanModel) subscribe(pattern string, id simnet.NodeID) {
	if m[pattern] == nil {
		m[pattern] = make(map[simnet.NodeID]struct{})
	}
	m[pattern][id] = struct{}{}
}

func (m scanModel) deliveries(topic string) []string {
	var out []string
	for pattern, ids := range m {
		if !TopicMatches(pattern, topic) {
			continue
		}
		for id := range ids {
			out = append(out, pattern+" → "+string(id))
		}
	}
	slices.Sort(out) // ids share a width, so this is (pattern, id) order
	return out
}

// randomName draws a topic or a pattern from the shapes of the
// FuzzTopicMatches corpus: short levels, wildcards as whole levels and
// inside them, empty levels, empty strings.
func randomName(rng *rand.Rand, levels []string) string {
	parts := make([]string, rng.Intn(4))
	for i := range parts {
		parts[i] = levels[rng.Intn(len(levels))]
	}
	return strings.Join(parts, "/")
}

func TestIndexMatchesFullScan(t *testing.T) {
	patternLevels := []string{"a", "b", "zone", "3", "temp", "+", "+", "#", "", "a+", "#b"}
	topicLevels := []string{"a", "b", "zone", "3", "temp", "x", "", "+", "#", "a+"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBroker(simnet.New().AddNode("broker"))
		model := scanModel{}
		var patterns []string
		for step := 0; step < 300; step++ {
			id := simnet.NodeID(fmt.Sprintf("c%02d", rng.Intn(12)))
			var p string
			if len(patterns) == 0 || rng.Intn(10) < 6 {
				p = randomName(rng, patternLevels)
				patterns = append(patterns, p)
			} else { // a second subscriber, or a duplicate subscription
				p = patterns[rng.Intn(len(patterns))]
			}
			b.handle(id, subscribeMsg{Topic: p})
			model.subscribe(p, id)
			for probe := 0; probe < 8; probe++ {
				topic := randomName(rng, topicLevels)
				if probe == 0 {
					topic = patterns[rng.Intn(len(patterns))] // a topic spelled like a pattern
				}
				var got []string
				for _, s := range b.covering(nil, topic) {
					for _, id := range s.ids {
						got = append(got, s.pattern+" → "+string(id))
					}
				}
				if want := model.deliveries(topic); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d topic %q:\nindex %q\nscan  %q", seed, step, topic, got, want)
				}
			}
		}
		for _, s := range b.wild {
			if !isWild(s.pattern) || b.subs[s.pattern] != s {
				t.Fatalf("seed %d: wild lists %q, which is not a wildcard row of the table", seed, s.pattern)
			}
		}
		if !slices.IsSortedFunc(b.wild, func(x, y *subscription) int { return strings.Compare(x.pattern, y.pattern) }) {
			t.Fatalf("seed %d: wild is out of pattern order", seed)
		}
	}
}

// TestFanOutOrderIsReproducible replays one seed on 30 fresh sims. Send
// order fixes simnet's sequence numbers and latency draws, so any map
// order left in fan-out, retained replay, resubscription or client
// dispatch shows as a second delivery sequence.
func TestFanOutOrderIsReproducible(t *testing.T) {
	run := func() string {
		sim := simnet.New(simnet.WithSeed(7), simnet.WithDefaultLatency(5*time.Millisecond))
		b := NewBroker(sim.AddNode("broker"))
		var log []string
		record := func(who string) MessageHandler {
			return func(topic string, payload any) { log = append(log, fmt.Sprintf("%s<%s:%v", who, topic, payload)) }
		}
		b.InjectRetained("state/a", 1)
		b.InjectRetained("state/b", 2)
		b.SubscribeLocal("news", record("local-news"))
		b.SubscribeLocal("#", record("local-all"))
		var clients []*Client
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("c%d", i)
			c := NewClient(sim.AddNode(simnet.NodeID(name)), "broker", ClientConfig{})
			c.Subscribe("news", record(name))
			clients = append(clients, c)
		}
		all := NewClient(sim.AddNode("all"), "broker", ClientConfig{})
		all.Subscribe("#", record("all#")) // replays both retained topics
		all.Subscribe("news", record("all=news"))
		all.Subscribe("+", record("all+"))
		sim.RunUntil(time.Second)
		pub := NewClient(sim.AddNode("pub"), "broker", ClientConfig{})
		for i := 0; i < 3; i++ {
			pub.Publish("news", i, AtMostOnce)
			sim.RunUntil(sim.Now() + time.Second)
		}
		// A restarted client resubscribes all three patterns.
		sim.SetDown("all", true)
		sim.SetDown("all", false)
		sim.RunUntil(sim.Now() + time.Second)
		clients[2].Publish("news", "last", AtMostOnce)
		sim.RunUntil(sim.Now() + time.Second)
		return strings.Join(log, "\n")
	}
	first := run()
	// "all" gets one delivery per matching pattern and hands each to
	// its 3 matching handlers. So: 3 publishes × (5 + 9 + 2 local), 2
	// retained replays, then one publish reaching 4 + 9 + 2.
	if got, want := strings.Count(first, "\n")+1, 3*16+2+15; got != want {
		t.Fatalf("%d deliveries, want %d:\n%s", got, want, first)
	}
	for i := 1; i < 30; i++ {
		if again := run(); again != first {
			t.Fatalf("run %d delivered in another order:\n%s\n--- first run ---\n%s", i, again, first)
		}
	}
}

// TestBrokerRestartKeepsLocalRows: a restart empties the table of
// network subscribers, wildcard rows included, and keeps the rows that
// carry local subscribers, which are application wiring.
func TestBrokerRestartKeepsLocalRows(t *testing.T) {
	sim := simnet.New()
	b, cs := rig(t, sim, 2)
	var local, remote []string
	b.SubscribeLocal("zone/+/temp", func(topic string, _ any) { local = append(local, "+:"+topic) })
	b.SubscribeLocal("zone/1/temp", func(topic string, _ any) { local = append(local, "=:"+topic) })
	for _, pattern := range []string{"zone/#", "zone/+/temp", "zone/1/temp"} {
		cs[1].Subscribe(pattern, func(topic string, _ any) { remote = append(remote, topic) })
	}
	sim.RunUntil(50 * time.Millisecond)
	sim.SetDown("broker", true)
	sim.SetDown("broker", false)

	cs[0].Publish("zone/1/temp", 20.0, AtMostOnce)
	sim.RunUntil(200 * time.Millisecond)
	if want := []string{"+:zone/1/temp", "=:zone/1/temp"}; !slices.Equal(local, want) {
		t.Fatalf("local handlers after restart got %q, want %q", local, want)
	}
	if len(remote) != 0 {
		t.Fatalf("network subscriptions survived the restart: %q", remote)
	}
	if len(b.subs) != 2 || len(b.wild) != 1 || b.wild[0].pattern != "zone/+/temp" {
		t.Fatalf("table after restart: %d rows, %d wildcard; want the 2 local rows, 1 wildcard", len(b.subs), len(b.wild))
	}
}

// cityBroker has the ML2 city's table: a local subscriber on the
// readings topic and 200 actuators on a topic each, no wildcards.
func cityBroker(tb testing.TB) (*simnet.Sim, *Broker, *int) {
	tb.Helper()
	sim := simnet.New()
	b := NewBroker(sim.AddNode("broker"))
	local := new(int)
	b.SubscribeLocal("readings", func(string, any) { *local++ })
	for z := 0; z < 200; z++ {
		b.handle(simnet.NodeID(fmt.Sprintf("act-%03d", z)), subscribeMsg{Topic: fmt.Sprintf("act/zone-%d", z)})
	}
	return sim, b, local
}

// TestExactFanOutCost gates the exact-topic path: with no wildcard
// subscribed the wild list — the only rows fan-out runs TopicMatches
// over — is empty, so a publish costs its own deliveries and nothing
// per subscription that does not match.
func TestExactFanOutCost(t *testing.T) {
	sim, b, local := cityBroker(t)
	if len(b.wild) != 0 {
		t.Fatalf("%d exact subscriptions put %d rows in the wildcard walk", len(b.subs), len(b.wild))
	}
	var payload any = 21.5
	if n := testing.AllocsPerRun(100, func() { b.fanOut("sensor", "readings", payload) }); n != 0 {
		t.Errorf("local-only publish past 200 subscriptions: %v allocs, want 0", n)
	}
	if *local != 101 {
		t.Fatalf("local handler ran %d times in 101 publishes", *local)
	}
	b.handle("second", subscribeMsg{Topic: "act/zone-7"})
	before := sim.Stats().Sent
	if n := testing.AllocsPerRun(100, func() { b.fanOut("", "act/zone-7", payload) }); n != 2 {
		t.Errorf("publish to 2 subscribers: %v allocs, want 2 (one boxed delivery each)", n)
	}
	if got := sim.Stats().Sent - before; got != 2*101 {
		t.Fatalf("%d deliveries in 101 publishes to 2 subscribers", got)
	}
}

// BenchmarkFanOutExact is the ML2 city's publish: a sensor reading for
// the cloud's local subscriber, past 200 actuator subscriptions that do
// not match.
func BenchmarkFanOutExact(b *testing.B) {
	_, br, _ := cityBroker(b)
	var payload any = 21.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.fanOut("sensor", "readings", payload)
	}
}
