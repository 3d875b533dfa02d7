package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/crdt"
	"repro/internal/dataflow"
	"repro/internal/gossip"
	"repro/internal/mape"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/observatory"
	"repro/internal/pubsub"
	"repro/internal/realnet"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/space"
	"repro/internal/verify"
)

// A probe is a fixed number of calls into one layer's public functions,
// timed from outside: what one operation of that layer costs when
// nothing else runs. Probes do not depend on the workload or the seed;
// every traced run repeats them, so a ledger always carries its own.

// perOp times n calls of f and returns the nanoseconds of one.
func perOp(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0)) / float64(n)
}

// mallocs counts the heap allocations f makes (and whatever the rest of
// the process allocates meanwhile, which the probes keep idle).
func mallocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

const probeKeys = 4096

// n is a probe's call count: the full count, or a fiftieth of it in a
// -quick run, which only has to show that the probe works.
func (r *run) n(full int) int {
	if r.quick {
		return max(full/50, 2)
	}
	return full
}

func probeKey(i int) string { return fmt.Sprintf("zone%03d/sensor%02d/temp", i/16, i%16) }

func probeItem(i int, v float64) dataflow.Item {
	return dataflow.Item{Key: probeKey(i), Value: v, Label: dataflow.Label{Topic: "api", Origin: "site"}}
}

func runProbes(r *run) {
	end := r.spans.begin("probes", 0)
	defer end()
	// Every workload leaves a different heap behind; collect it, so that
	// the probes start from the same one.
	runtime.GC()
	for _, p := range []func(*run){
		probeSimnet, probeJournal, probeObs, probeGossip, probeConsensus, probePubsub,
		probeMape, probeVerify, probeCRDT, probeDataflow, probeRealnet, probeServe, probeChaos,
	} {
		p(r)
	}
}

func probeSimnet(r *run) {
	// Chained timers: schedule one, run it, schedule the next.
	timers := r.n(300000)
	s := simnet.New()
	left := timers
	var tick func()
	tick = func() {
		if left--; left > 0 {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(time.Microsecond, tick)
	t0 := time.Now()
	s.Run()
	r.set("simnet.timer_ns", float64(time.Since(t0))/float64(timers))

	// Two endpoints ping-pong: every message is a send, a queue pass and
	// a handler call.
	pingPong := func(opts ...simnet.Option) (ns, allocs float64) {
		msgs := r.n(200000)
		s := simnet.New(append(opts, simnet.WithDefaultLatency(time.Millisecond))...)
		a, b := s.AddNode("a"), s.AddNode("b")
		if s.ShardCount() > 1 {
			s.SetShard("a", 0)
			s.SetShard("b", 1)
		}
		// Each endpoint counts its own receives: on two lanes the
		// handlers run on two goroutines.
		bounce := func(self *simnet.Endpoint, to simnet.NodeID) {
			seen := 0
			self.OnMessage(func(_ simnet.NodeID, m simnet.Message) {
				if seen++; seen < msgs/2 {
					self.Send(to, m)
				}
			})
		}
		bounce(a, "b")
		bounce(b, "a")
		a.Send("b", 1)
		allocs = mallocs(func() {
			t0 := time.Now()
			s.RunUntil(time.Hour)
			ns = float64(time.Since(t0)) / float64(msgs)
		})
		return ns, allocs / float64(msgs)
	}
	ns, allocs := pingPong()
	r.set("simnet.msg_ns", ns)
	r.set("simnet.msg_allocs", allocs)
	ns, _ = pingPong(simnet.WithShards(2))
	r.set("simnet.shard_msg_ns", ns)
}

// probeJournal hashes and analyzes one paper-scale ML4 journal, per
// journal event.
func probeJournal(r *run) {
	cfg := core.DefaultScenario()
	cfg.Duration = 10 * time.Minute
	sys := core.NewSystem(cfg, core.ML4)
	sys.Run()
	journal := sys.Journal()
	n := float64(len(journal))
	r.set("core.journal_hash_ns", perOp(r.n(20), func() { core.JournalHash(journal) })/n)
	r.set("observatory.analyze_ns", perOp(r.n(20), func() { observatory.Analyze(journal, observatory.Options{}) })/n)
}

func probeObs(r *run) {
	bus := obs.NewBus(func() time.Duration { return 0 })
	emit := func() { bus.Emit("probe.event", "n0", 0, 0, "value=%d", 42) }
	r.set("obs.emit_idle_ns", perOp(r.n(2000000), emit))
	sub := bus.SubscribeFunc(func(obs.Event) {})
	r.set("obs.emit_sub_ns", perOp(r.n(300000), emit))
	sub.Close()
}

// probeGossip runs a 256-member SWIM group to its steady state, then
// times ten more virtual seconds of it.
func probeGossip(r *run) {
	members := 256
	if r.quick {
		members = 16
	}
	s := simnet.New(simnet.WithSeed(1), simnet.WithDefaultLatency(2*time.Millisecond))
	ids := make([]simnet.NodeID, members)
	ps := make([]*gossip.Protocol, members)
	for i := range ids {
		ids[i] = simnet.NodeID(fmt.Sprintf("n%03d", i))
		ps[i] = gossip.New(s.AddNode(ids[i]), gossip.Config{})
	}
	for i, p := range ps {
		if i == 0 {
			p.Start()
		} else {
			p.Start(ids[0])
		}
	}
	s.RunUntil(20 * time.Second)
	const vsec = 10
	t0 := time.Now()
	s.RunUntil(s.Now() + vsec*time.Second)
	r.set("gossip.us_per_vsec", float64(time.Since(t0))/1e3/vsec)
}

// probeConsensus times a 5-node Raft group idle under its leader, then
// committing commands in batches of 64.
func probeConsensus(r *run) {
	s := simnet.New(simnet.WithSeed(1), simnet.WithDefaultLatency(2*time.Millisecond))
	ids := []simnet.NodeID{"r0", "r1", "r2", "r3", "r4"}
	nodes := make([]*consensus.Node, len(ids))
	for i, id := range ids {
		nodes[i] = consensus.New(s.AddNode(id), ids, consensus.Config{}, nil)
		nodes[i].Start()
	}
	var leader *consensus.Node
	for s.Now() < 5*time.Second && leader == nil {
		s.RunUntil(s.Now() + 100*time.Millisecond)
		for _, n := range nodes {
			if n.Role() == consensus.Leader {
				leader = n
			}
		}
	}
	if leader == nil {
		return
	}
	const vsec = 20
	t0 := time.Now()
	s.RunUntil(s.Now() + vsec*time.Second)
	idle := float64(time.Since(t0)) / 1e3 / vsec
	r.set("consensus.idle_us_per_vsec", idle)

	commands := r.n(6400)
	t0 = time.Now()
	v0 := s.Now()
	for i := 0; i < commands; i++ {
		leader.Propose(i)
		if i%64 == 63 {
			s.RunUntil(s.Now() + 100*time.Millisecond)
		}
	}
	// The heartbeats of the virtual time that passed are not the
	// commands' cost.
	wall := float64(time.Since(t0))/1e3 - idle*(s.Now()-v0).Seconds()
	r.set("consensus.commit_us", wall/float64(commands))
}

func probePubsub(r *run) {
	msgs := r.n(100000)
	s := simnet.New(simnet.WithDefaultLatency(time.Millisecond))
	pubsub.NewBroker(s.AddNode("broker"))
	sub := pubsub.NewClient(s.AddNode("sub"), "broker", pubsub.ClientConfig{})
	pub := pubsub.NewClient(s.AddNode("pub"), "broker", pubsub.ClientConfig{})
	got := 0
	sub.Subscribe("zone/+/temp", func(string, any) { got++ })
	s.Run()
	t0 := time.Now()
	for i := 0; i < msgs; i++ {
		pub.Publish("zone/7/temp", 21.5, pubsub.AtMostOnce)
		if i%256 == 255 {
			s.Run()
		}
	}
	s.Run()
	if got > 0 {
		r.set("pubsub.deliver_ns", float64(time.Since(t0))/float64(got))
	}
}

// probeMape times one Monitor-Analyze-Plan-Execute cycle over eight
// requirements, one of them violated.
func probeMape(r *run) {
	var now time.Duration
	clock := func() time.Duration { return now }
	loop := mape.NewLoop(mape.NewKnowledge(crdt.ReplicaID("edge"), clock), clock)
	temps := make([]float64, 8)
	temps[0] = 30
	loop.AddMonitor(func(k *mape.Knowledge) {
		for z, t := range temps {
			k.Put(fmt.Sprintf("z%d/temp", z), t)
		}
	})
	for z := range temps {
		key, prop := fmt.Sprintf("z%d/temp", z), verify.Prop(fmt.Sprintf("z%d:temp_ok", z))
		loop.AddRule(mape.PropRule{Prop: prop, Eval: func(k *mape.Knowledge) bool {
			v, ok := k.GetFloat(key)
			return ok && v <= 26
		}})
		loop.AddRequirement(&model.Requirement{ID: model.RequirementID(fmt.Sprintf("R%d", z)), Prop: prop})
	}
	loop.SetPlanner(func(_ *mape.Knowledge, issues []mape.Issue) []mape.Action {
		return []mape.Action{{Name: "cool", Target: string(issues[0].Requirement)}}
	})
	loop.SetExecutor(func(*mape.Knowledge, mape.Action) bool { return true })
	r.set("mape.cycle_ns", perOp(r.n(50000), func() {
		now += time.Second
		loop.Cycle()
	}))
}

// probeVerify checks AG(EF goal), nested fixpoints, on a 4096-state ring.
func probeVerify(r *run) {
	k := verify.NewKripke()
	for i := 0; i < probeKeys; i++ {
		if i%10 == 0 {
			k.AddState("goal")
		} else {
			k.AddState()
		}
	}
	for i := 0; i < probeKeys; i++ {
		_ = k.AddTransition(i, (i+1)%probeKeys)
	}
	k.SetInitial(0)
	f := verify.AG(verify.EF(verify.AP("goal")))
	r.set("verify.ctl_us", perOp(r.n(20), func() { verify.Check(k, f) })/1e3)
}

func probeCRDT(r *run) {
	rounds := r.n(50)
	keys := make([]string, probeKeys)
	for i := range keys {
		keys[i] = probeKey(i)
	}
	a, b := crdt.NewLWWMap("a"), crdt.NewLWWMap("b")
	ts := time.Duration(0)
	r.set("crdt.set_ns", perOp(rounds, func() {
		ts++
		for _, k := range keys {
			a.Set(k, 21.5, ts)
		}
	})/probeKeys)
	var applying time.Duration
	for round := 0; round < rounds; round++ {
		ts++
		for _, k := range keys {
			a.Set(k, 21.5, ts)
		}
		state := a.State()
		t0 := time.Now()
		b.Apply(state)
		applying += time.Since(t0)
	}
	r.set("crdt.apply_ns", float64(applying)/float64(rounds)/probeKeys)

	// One sync turn's bookkeeping per key: dirty for two peers, cut the
	// pending set, mark it sent, acknowledge it.
	buf := crdt.NewDeltaBuffer("p1", "p2")
	r.set("crdt.delta_ns", perOp(rounds, func() {
		for _, k := range keys {
			buf.DirtyAll(k)
		}
		for _, p := range []string{"p1", "p2"} {
			pending := buf.Pending(p)
			seq := buf.NextSeq(p)
			buf.MarkSent(p, seq, pending, ts)
			buf.Ack(p, seq)
		}
	})/probeKeys)
}

// storePair is two stores that sync with each other, on any two ports.
func storePair(pa, pb simnet.Port) (a, b *dataflow.Store) {
	world := space.NewMap()
	world.AddDomain(space.Domain{ID: "site", Trusted: true})
	world.Place(string(pa.ID()), space.Point{}, "site")
	world.Place(string(pb.ID()), space.Point{}, "site")
	// No Start: the probe decides when a sync turn happens.
	a = dataflow.NewStore(pa, world, dataflow.StoreConfig{Peers: []simnet.NodeID{pb.ID()}, SyncInterval: time.Hour})
	b = dataflow.NewStore(pb, world, dataflow.StoreConfig{Peers: []simnet.NodeID{pa.ID()}, SyncInterval: time.Hour})
	return a, b
}

// probeDataflow times a store's write, read, one sync turn over 4096
// dirty keys, and the delivery of that turn's frames to the peer,
// separately, on a private simulator where the wire costs nothing.
func probeDataflow(r *run) {
	rounds := r.n(12)
	s := simnet.New(simnet.WithDefaultLatency(time.Microsecond))
	a, b := storePair(s.AddNode("a"), s.AddNode("b"))
	var put, get, send, apply time.Duration
	for round := 0; round < rounds; round++ {
		s.RunUntil(s.Now() + time.Second) // a fresh timestamp for the round's writes
		t0 := time.Now()
		for i := 0; i < probeKeys; i++ {
			a.Put(probeItem(i, float64(round)))
		}
		t1 := time.Now()
		for i := 0; i < probeKeys; i++ {
			a.Get(probeKey(i))
		}
		t2 := time.Now()
		a.SyncNow()
		t3 := time.Now()
		s.Run()
		t4 := time.Now()
		put, get, send, apply = put+t1.Sub(t0), get+t2.Sub(t1), send+t3.Sub(t2), apply+t4.Sub(t3)
	}
	n := float64(rounds) * probeKeys
	r.set("dataflow.put_ns", float64(put)/n)
	r.set("dataflow.get_ns", float64(get)/n)
	r.set("dataflow.sync_send_ns", float64(send)/n)
	r.set("dataflow.apply_ns", float64(apply)/n)
	if st := a.SyncStats(); st.EntriesSent > 0 {
		r.set("dataflow.frame_bytes_per_entry", float64(st.BytesSent)/float64(st.EntriesSent))
	}
	if b.Received() == 0 {
		r.check("probe-dataflow", false, "peer store received nothing")
	}
}

// probeFrame is a datagram the size of a full store sync frame.
type probeFrame struct {
	Seq     uint64
	Entries []crdt.Entry
}

type probeToken struct{ Hops int }

var probeWire sync.Once

func registerProbeWire() {
	probeWire.Do(func() {
		dataflow.RegisterWire(realnet.RegisterWireType)
		realnet.RegisterWireType(probeFrame{})
		realnet.RegisterWireType(probeToken{})
	})
}

func probeRealnet(r *run) {
	registerProbeWire()
	a, err := realnet.NewNode("a", "127.0.0.1:0")
	if err != nil {
		r.check("probe-realnet", false, "%v", err)
		return
	}
	defer a.Close()
	b, err := realnet.NewNode("b", "127.0.0.1:0")
	if err != nil {
		r.check("probe-realnet", false, "%v", err)
		return
	}
	defer b.Close()
	_ = a.AddPeer("b", b.Addr())
	_ = b.AddPeer("a", a.Addr())
	b.OnMessage(func(simnet.NodeID, simnet.Message) {})
	a.Run()
	b.Run()

	r.set("realnet.do_ns", perOp(r.n(50000), func() { a.Do(func() {}) }))

	// A frame like the ones a store cuts: entries up to the 4 KiB cap.
	var frame probeFrame
	for i, size := 0, 0; size < 4096-128; i++ {
		e := crdt.Entry{Key: probeKey(i), Value: probeItem(i, 21.5).WithHop(dataflow.Hop{Node: "a", Action: "produced"}), Ts: time.Second, Replica: "a"}
		size += crdt.EntrySize(e)
		frame.Entries = append(frame.Entries, e)
	}
	before := a.NetStats()
	r.set("realnet.send_ns", perOp(r.n(3000), func() {
		frame.Seq++
		a.Send("b", frame)
	}))
	if st := a.NetStats(); st.Sent > before.Sent {
		r.set("realnet.dgram_bytes", float64(st.SentBytes-before.SentBytes)/float64(st.Sent-before.Sent))
	}
	settle(b)

	// Flood small datagrams one way as fast as Send returns.
	flood := r.n(30000)
	recv0 := b.NetStats().Received
	t0 := time.Now()
	for i := 0; i < flood; i++ {
		a.Send("b", probeToken{i})
	}
	settle(b)
	got := float64(b.NetStats().Received - recv0)
	r.set("realnet.flood_dgrams_per_s", got/time.Since(t0).Seconds())
	r.set("realnet.flood_loss_frac", 1-got/float64(flood))

	// Eight nodes under one world lock pass tokens round a ring: every
	// hop takes the lock, as every event of the live city does.
	const ringSize, tokens = 8, 4
	c := realnet.NewCluster(realnet.ClusterConfig{Seed: 1, Serialize: true})
	defer c.Close()
	ring := make([]*realnet.Node, ringSize)
	for i := range ring {
		n, err := c.AddNode(simnet.NodeID(fmt.Sprintf("ring%d", i)))
		if err != nil {
			r.check("probe-realnet", false, "%v", err)
			return
		}
		ring[i] = n
	}
	for i, n := range ring {
		n, next := n, ring[(i+1)%ringSize].ID()
		n.OnMessage(func(_ simnet.NodeID, m simnet.Message) {
			if t, ok := m.(probeToken); ok {
				n.Send(next, probeToken{t.Hops + 1})
			}
		})
	}
	if err := c.Start(); err != nil {
		r.check("probe-realnet", false, "%v", err)
		return
	}
	for _, n := range ring {
		for k := 0; k < tokens; k++ {
			n.Send(ring[0].ID(), probeToken{})
		}
	}
	time.Sleep(50 * time.Millisecond)
	s0, t0 := c.NetStats().Received, time.Now()
	time.Sleep(400 * time.Millisecond)
	r.set("realnet.serialized_dgrams_per_s", float64(c.NetStats().Received-s0)/time.Since(t0).Seconds())
}

// settle waits until the node has stopped receiving.
func settle(n *realnet.Node) {
	last := n.NetStats().Received
	for idle := 0; idle < 5; {
		time.Sleep(2 * time.Millisecond)
		if now := n.NetStats().Received; now == last {
			idle++
		} else {
			last, idle = now, 0
		}
	}
}

// probeServe calls one node's HTTP handler directly, no socket: JSON,
// admission, the batcher and the node's loop, down to the store.
func probeServe(r *run) {
	c, err := serve.StartCluster(1, serve.ClusterOptions{})
	if err != nil {
		r.check("probe-serve", false, "%v", err)
		return
	}
	defer c.Close()
	h := c.Nodes[0].Server.Handler()
	calls := r.n(20000)
	request := func(method string) (*httptest.ResponseRecorder, *http.Request) {
		var body io.Reader
		if method == http.MethodPut {
			body = strings.NewReader(`{"value":21.5}`)
		}
		return httptest.NewRecorder(), httptest.NewRequest(method, "/v1/data/zone007/sensor03/temp", body)
	}
	for _, m := range []struct{ method, name string }{{http.MethodPut, "put"}, {http.MethodGet, "get"}} {
		var spent time.Duration
		bad := 0
		total := mallocs(func() {
			for i := 0; i < calls; i++ {
				w, req := request(m.method)
				t0 := time.Now()
				h.ServeHTTP(w, req)
				spent += time.Since(t0)
				if w.Code >= 300 {
					bad++
				}
			}
		})
		building := mallocs(func() {
			for i := 0; i < calls; i++ {
				request(m.method)
			}
		})
		r.set("serve."+m.name+"_handler_ns", float64(spent)/float64(calls))
		r.set("serve."+m.name+"_handler_allocs", (total-building)/float64(calls))
		if bad > 0 {
			r.check("probe-serve", false, "%d of %d %s calls failed", bad, calls, m.method)
		}
	}
}

// probeChaos replays the corpus; the figure is the median entry.
func probeChaos(r *run) {
	ces, err := chaos.LoadCorpus(corpusDir)
	if err != nil {
		return
	}
	var ms []float64
	for _, ce := range ces {
		t0 := time.Now()
		if ce.Replay() == nil {
			ms = append(ms, float64(time.Since(t0))/1e6)
		}
	}
	r.set("chaos.replay_ms", median(ms))
}
