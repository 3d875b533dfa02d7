package realnet

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/dataflow"
	"repro/internal/gossip"
	"repro/internal/simnet"
	"repro/internal/space"
)

// registerOnce makes the gossip wire types encodable exactly once per
// test binary.
var registered = false

func registerWire() {
	if !registered {
		gossip.RegisterWire(RegisterWireType)
		registered = true
	}
}

// gossipCluster starts n gossip nodes over localhost UDP, all seeded
// through node 0, and returns nodes plus protocols and a cleanup.
func gossipCluster(t *testing.T, n int) ([]*Node, []*gossip.Protocol) {
	t.Helper()
	registerWire()
	cfg := gossip.Config{
		ProbeInterval:    50 * time.Millisecond,
		ProbeTimeout:     20 * time.Millisecond,
		SuspicionTimeout: 300 * time.Millisecond,
	}
	nodes := make([]*Node, n)
	protos := make([]*gossip.Protocol, n)
	ids := make([]simnet.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = simnet.NodeID(string(rune('a' + i)))
		node, err := NewNode(ids[i], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		protos[i] = gossip.New(node, cfg)
	}
	// Full mesh of peer addresses.
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j {
				if err := a.AddPeer(ids[j], b.Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, node := range nodes {
		node.Run()
		i := i
		if !node.Do(func() {
			if i == 0 {
				protos[i].Start()
			} else {
				protos[i].Start(ids[0])
			}
		}) {
			t.Fatal("node refused Do")
		}
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close()
		}
	})
	return nodes, protos
}

// aliveCount reads a protocol's alive count safely via the event loop.
func aliveCount(node *Node, p *gossip.Protocol) int {
	got := -1
	node.Do(func() { got = p.AliveCount() })
	return got
}

func TestGossipConvergesOverUDP(t *testing.T) {
	nodes, protos := gossipCluster(t, 3)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for i := range nodes {
			if aliveCount(nodes[i], protos[i]) != 3 {
				all = false
				break
			}
		}
		if all {
			return // converged
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i := range nodes {
		t.Logf("node %d sees %d alive", i, aliveCount(nodes[i], protos[i]))
	}
	t.Fatal("gossip did not converge over real UDP")
}

func TestGossipDetectsRealCrash(t *testing.T) {
	nodes, protos := gossipCluster(t, 3)
	// Wait for convergence first.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && aliveCount(nodes[0], protos[0]) != 3 {
		time.Sleep(50 * time.Millisecond)
	}
	if aliveCount(nodes[0], protos[0]) != 3 {
		t.Skip("cluster did not converge; environment too slow")
	}
	// Kill node 2 for real.
	nodes[2].Close()
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if aliveCount(nodes[0], protos[0]) == 2 {
			return // death detected
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("crash of a real node not detected")
}

func TestNodeBasics(t *testing.T) {
	registerWire()
	node, err := NewNode("x", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if node.ID() != "x" || !node.Up() || node.Rand() == nil {
		t.Fatal("port surface wrong")
	}
	if node.Addr() == "" {
		t.Fatal("no address")
	}
	if node.Now() < 0 {
		t.Fatal("negative clock")
	}
	if err := node.AddPeer("y", "not-an-addr"); err == nil {
		t.Fatal("bad peer address accepted")
	}
	if node.Send("ghost", "msg") {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestTimerAndTickerOnEventLoop(t *testing.T) {
	registerWire()
	node, err := NewNode("x", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.Run()

	fired := make(chan struct{})
	node.After(10*time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer did not fire")
	}

	// A stopped timer must not fire.
	var stoppedFired bool
	tm := node.After(50*time.Millisecond, func() { stoppedFired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	time.Sleep(150 * time.Millisecond)
	node.Do(func() {}) // drain the loop
	if stoppedFired {
		t.Fatal("stopped timer fired")
	}

	// Ticker fires repeatedly and stops cleanly.
	ticks := 0
	tk := node.Every(20*time.Millisecond, func() { ticks++ })
	time.Sleep(200 * time.Millisecond)
	tk.Stop()
	var snapshot int
	node.Do(func() { snapshot = ticks })
	if snapshot < 3 {
		t.Fatalf("ticks = %d, want ≥3", snapshot)
	}
	time.Sleep(100 * time.Millisecond)
	var after int
	node.Do(func() { after = ticks })
	if after > snapshot+1 {
		t.Fatalf("ticker kept firing after Stop: %d → %d", snapshot, after)
	}
}

func TestSendBetweenTwoNodes(t *testing.T) {
	registerWire()
	a, err := NewNode("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer("b", b.Addr()); err != nil {
		t.Fatal(err)
	}

	got := make(chan simnet.Message, 1)
	b.OnMessage(func(from simnet.NodeID, msg simnet.Message) {
		if from == "a" {
			got <- msg
		}
	})
	a.Run()
	b.Run()

	// gob needs a registered concrete type; strings are built in.
	if !a.Send("b", "hello-over-udp") {
		t.Fatal("send failed")
	}
	select {
	case m := <-got:
		if m != "hello-over-udp" {
			t.Fatalf("got %v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived")
	}
}

// TestEnvelopeRoundTripOverUDP sends one envelope node to node and
// one through a protocol mux on each side: both reach the envelope
// handler intact, and none reaches a message handler. Envelopes need no
// registration; the mux wrapper does.
func TestEnvelopeRoundTripOverUDP(t *testing.T) {
	simnet.RegisterMuxWire(RegisterWireType)
	a, err := NewNode("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer("b", b.Addr()); err != nil {
		t.Fatal(err)
	}
	type arrival struct {
		via string
		env simnet.Envelope
	}
	got := make(chan arrival, 2)
	handler := func(via string) simnet.EnvelopeHandler {
		return func(from simnet.NodeID, env *simnet.Envelope) {
			if from == "a" {
				got <- arrival{via, *env}
			}
		}
	}
	b.OnEnvelope(handler("raw"))
	muxA, muxB := simnet.NewPortMux(a).Port("p"), simnet.NewPortMux(b).Port("p")
	muxB.OnEnvelope(handler("mux"))
	muxB.OnMessage(func(simnet.NodeID, simnet.Message) { t.Error("mux envelope reached the message handler") })
	a.Run()
	b.Run()

	want := simnet.Envelope{Kind: 5, Flag: true, A: 1, B: 2, C: 3, D: 4, S: "a", T: "b", Bytes: 48}
	if !a.SendEnvelope("b", want) {
		t.Fatal("raw SendEnvelope failed")
	}
	if !muxA.SendEnvelope("b", want) {
		t.Fatal("mux SendEnvelope failed")
	}
	seen := map[string]bool{}
	for len(seen) < 2 {
		select {
		case m := <-got:
			if m.env != want {
				t.Fatalf("%s: got %+v, want %+v", m.via, m.env, want)
			}
			seen[m.via] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("envelopes never arrived: saw %v", seen)
		}
	}
}

func TestRaftCommitsOverUDP(t *testing.T) {
	registerWire()
	consensus.RegisterWire(RegisterWireType)

	ids := []simnet.NodeID{"r0", "r1", "r2"}
	nodes := make([]*Node, 3)
	rafts := make([]*consensus.Node, 3)
	applied := make([]int, 3)
	for i := range ids {
		node, err := NewNode(ids[i], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		i := i
		rafts[i] = consensus.New(node, ids, consensus.Config{
			ElectionTimeoutMin: 100 * time.Millisecond,
			ElectionTimeoutMax: 200 * time.Millisecond,
			HeartbeatInterval:  30 * time.Millisecond,
		}, func(_ uint64, _ consensus.Command) { applied[i]++ })
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j {
				if err := a.AddPeer(ids[j], b.Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, node := range nodes {
		node.Run()
		i := i
		node.Do(func() { rafts[i].Start() })
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close()
		}
	})

	// Wait for a leader, then propose through it.
	deadline := time.Now().Add(10 * time.Second)
	leader := -1
	for time.Now().Before(deadline) && leader < 0 {
		for i := range rafts {
			i := i
			nodes[i].Do(func() {
				if rafts[i].Role() == consensus.Leader {
					leader = i
				}
			})
		}
		time.Sleep(20 * time.Millisecond)
	}
	if leader < 0 {
		t.Fatal("no leader elected over real UDP")
	}
	ok := false
	nodes[leader].Do(func() { _, ok = rafts[leader].Propose("real-command") })
	if !ok {
		t.Fatal("propose refused")
	}

	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for i := range rafts {
			var n int
			nodes[i].Do(func() { n = applied[i] })
			if n != 1 {
				all = false
			}
		}
		if all {
			return // committed and applied everywhere
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("command not applied on all nodes: %v", applied)
}

func TestGovernedStoreSyncsOverUDP(t *testing.T) {
	registerWire()
	dataflow.RegisterWire(RegisterWireType)

	world := space.NewMap()
	world.AddDomain(space.Domain{ID: "eu", Jurisdiction: space.JurisdictionGDPR, Trusted: true})
	world.AddDomain(space.Domain{ID: "us", Jurisdiction: space.JurisdictionCCPA, Trusted: true})
	world.Place("producer", space.Point{}, "eu")
	world.Place("consumer", space.Point{X: 5}, "us")

	prod, err := NewNode("producer", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	cons, err := NewNode("consumer", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	if err := prod.AddPeer("consumer", cons.Addr()); err != nil {
		t.Fatal(err)
	}

	producer := dataflow.NewStore(prod, world, dataflow.StoreConfig{
		Peers: []simnet.NodeID{"consumer"}, SyncInterval: 50 * time.Millisecond,
	})
	consumer := dataflow.NewStore(cons, world, dataflow.StoreConfig{
		SyncInterval: 50 * time.Millisecond,
	})
	prod.Run()
	cons.Run()
	prod.Do(func() {
		producer.Start()
		producer.Put(dataflow.Item{
			Key: "temp", Value: 21.5,
			Label: dataflow.Label{Topic: "temperature", Sensitivity: dataflow.Public,
				Origin: "eu", Jurisdiction: space.JurisdictionGDPR},
		})
		producer.Put(dataflow.Item{
			Key: "hr", Value: 70.0,
			Label: dataflow.Label{Topic: "vitals", Sensitivity: dataflow.Sensitive,
				Origin: "eu", Jurisdiction: space.JurisdictionGDPR},
		})
	})
	cons.Do(consumer.Start)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var gotTemp, gotHR bool
		cons.Do(func() {
			_, gotTemp = consumer.Get("temp")
			_, gotHR = consumer.Get("hr")
		})
		if gotHR {
			t.Fatal("sensitive item crossed jurisdiction over real UDP")
		}
		if gotTemp {
			// Lineage traveled with the item.
			var hops []dataflow.Hop
			cons.Do(func() { hops = consumer.Lineage("temp") })
			if len(hops) != 2 || hops[1].Node != "consumer" {
				t.Fatalf("lineage = %+v", hops)
			}
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("public item never arrived over real UDP")
}

func TestCloseIdempotentAndDoAfterClose(t *testing.T) {
	registerWire()
	node, err := NewNode("x", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node.Run()
	node.Close()
	node.Close() // idempotent
	if node.Up() {
		t.Fatal("closed node reports up")
	}
	if node.Do(func() {}) {
		t.Fatal("Do succeeded after close")
	}
	if node.Send("b", "x") {
		t.Fatal("send after close succeeded")
	}
}
