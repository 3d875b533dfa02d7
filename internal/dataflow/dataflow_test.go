package dataflow

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/space"
)

// twoDomains: "eu" (GDPR, trusted) and "us" (CCPA, untrusted).
func twoDomains() *space.Map {
	m := space.NewMap()
	m.AddDomain(space.Domain{ID: "eu", Jurisdiction: space.JurisdictionGDPR, Trusted: true})
	m.AddDomain(space.Domain{ID: "us", Jurisdiction: space.JurisdictionCCPA, Trusted: false})
	m.AddDomain(space.Domain{ID: "eu2", Jurisdiction: space.JurisdictionGDPR, Trusted: true})
	return m
}

func euDomain(m *space.Map) space.Domain  { d, _ := m.Domain("eu"); return d }
func usDomain(m *space.Map) space.Domain  { d, _ := m.Domain("us"); return d }
func eu2Domain(m *space.Map) space.Domain { d, _ := m.Domain("eu2"); return d }

func sensitiveItem(key string) Item {
	return Item{
		Key:   key,
		Value: 120.5,
		Label: Label{Topic: "heart-rate", Sensitivity: Sensitive, Origin: "eu", Jurisdiction: space.JurisdictionGDPR},
	}
}

func publicItem(key string) Item {
	return Item{
		Key:   key,
		Value: 21.0,
		Label: Label{Topic: "temperature", Sensitivity: Public, Origin: "eu", Jurisdiction: space.JurisdictionGDPR},
	}
}

func TestSensitivityString(t *testing.T) {
	if Public.String() != "public" || Internal.String() != "internal" || Sensitive.String() != "sensitive" {
		t.Fatal("names wrong")
	}
}

func TestRuleSensitiveStaysInJurisdiction(t *testing.T) {
	m := twoDomains()
	e := DefaultPrivacyEngine()
	// Sensitive GDPR data to a CCPA domain: denied.
	d := e.Decide(FlowContext{Item: sensitiveItem("k"), From: euDomain(m), To: usDomain(m)})
	if d.Allowed {
		t.Fatal("sensitive data allowed out of jurisdiction")
	}
	if d.Rule != "sensitive-stays-in-jurisdiction" {
		t.Fatalf("rule = %q", d.Rule)
	}
	// Same jurisdiction, different domain: allowed.
	d2 := e.Decide(FlowContext{Item: sensitiveItem("k"), From: euDomain(m), To: eu2Domain(m)})
	if !d2.Allowed {
		t.Fatal("sensitive data blocked within jurisdiction")
	}
	// Public data anywhere: allowed.
	d3 := e.Decide(FlowContext{Item: publicItem("k"), From: euDomain(m), To: usDomain(m)})
	if !d3.Allowed {
		t.Fatal("public data blocked")
	}
}

func TestRuleNoConfidentialToUntrusted(t *testing.T) {
	m := twoDomains()
	e := DefaultPrivacyEngine()
	internal := Item{Key: "k", Label: Label{Topic: "ops", Sensitivity: Internal, Jurisdiction: space.JurisdictionCCPA}}
	d := e.Decide(FlowContext{Item: internal, From: usDomain(m), To: usDomain(m)})
	if d.Allowed {
		t.Fatal("internal data allowed into untrusted domain")
	}
	if d.Rule != "no-confidential-to-untrusted" {
		t.Fatalf("rule = %q", d.Rule)
	}
}

func TestAdmitEnforceVsObserve(t *testing.T) {
	m := twoDomains()
	fc := FlowContext{Item: sensitiveItem("k"), From: euDomain(m), To: usDomain(m)}

	enf := DefaultPrivacyEngine()
	if enf.Admit(fc, time.Second) {
		t.Fatal("enforcing engine admitted a violation")
	}
	obs := ObservedEngine()
	if !obs.Admit(fc, time.Second) {
		t.Fatal("observing engine blocked the flow")
	}
	// Both recorded the violation.
	for _, e := range []*Engine{enf, obs} {
		vs := e.Violations()
		if len(vs) != 1 || vs[0].Key != "k" || vs[0].At != time.Second {
			t.Fatalf("violations = %+v", vs)
		}
	}
	if n := enf.ViolationCount(); n != 1 {
		t.Fatalf("ViolationCount = %d, want 1", n)
	}
}

func TestDefaultDecision(t *testing.T) {
	m := twoDomains()
	deny := NewEngine(Enforce, false)
	if d := deny.Decide(FlowContext{Item: publicItem("k"), From: euDomain(m), To: euDomain(m)}); d.Allowed || d.Rule != "default" {
		t.Fatalf("decision = %+v", d)
	}
}

// --- store integration over simnet ---

// storeRig: edge store in "eu", peer store in peerDomain.
func storeRig(t *testing.T, peerDomain space.DomainID, engine func() *Engine) (*simnet.Sim, *Store, *Store) {
	t.Helper()
	sim := simnet.New(simnet.WithSeed(1))
	m := twoDomains()
	m.Place("edge", space.Point{X: 0, Y: 0}, "eu")
	m.Place("peer", space.Point{X: 10, Y: 0}, peerDomain)

	edge := NewStore(sim.AddNode("edge"), m, StoreConfig{
		Peers: []simnet.NodeID{"peer"}, SyncInterval: 100 * time.Millisecond, Engine: engine(),
	})
	peer := NewStore(sim.AddNode("peer"), m, StoreConfig{
		Peers: []simnet.NodeID{"edge"}, SyncInterval: 100 * time.Millisecond, Engine: engine(),
	})
	edge.Start()
	peer.Start()
	return sim, edge, peer
}

func TestStoreSyncsPublicData(t *testing.T) {
	sim, edge, peer := storeRig(t, "us", DefaultPrivacyEngine)
	edge.Put(publicItem("room1/temp"))
	sim.RunUntil(time.Second)
	item, ok := peer.Get("room1/temp")
	if !ok || item.Value != 21.0 {
		t.Fatalf("peer item = %+v/%v", item, ok)
	}
	if peer.Received() == 0 {
		t.Fatal("nothing received")
	}
}

func TestStoreBlocksSensitiveCrossJurisdiction(t *testing.T) {
	sim, edge, peer := storeRig(t, "us", DefaultPrivacyEngine)
	edge.Put(sensitiveItem("patient/hr"))
	edge.Put(publicItem("room1/temp"))
	sim.RunUntil(time.Second)
	if _, ok := peer.Get("patient/hr"); ok {
		t.Fatal("sensitive item crossed jurisdiction under enforcement")
	}
	if _, ok := peer.Get("room1/temp"); !ok {
		t.Fatal("public item was blocked too")
	}
	if len(edge.engine.Violations()) == 0 {
		t.Fatal("sender recorded no violations")
	}
}

func TestStoreAllowsSensitiveWithinJurisdiction(t *testing.T) {
	sim, edge, peer := storeRig(t, "eu2", DefaultPrivacyEngine)
	edge.Put(sensitiveItem("patient/hr"))
	sim.RunUntil(time.Second)
	if _, ok := peer.Get("patient/hr"); !ok {
		t.Fatal("sensitive item blocked within jurisdiction")
	}
}

func TestObserveModeLeaksButCounts(t *testing.T) {
	sim, edge, peer := storeRig(t, "us", ObservedEngine)
	edge.Put(sensitiveItem("patient/hr"))
	sim.RunUntil(time.Second)
	if _, ok := peer.Get("patient/hr"); !ok {
		t.Fatal("observe mode should let the item through")
	}
	// Violation recorded at sender out-flow and receiver in-flow.
	if len(edge.engine.Violations()) == 0 {
		t.Fatal("sender saw no violation")
	}
	if len(peer.engine.Violations()) == 0 {
		t.Fatal("receiver saw no violation")
	}
}

func TestReceiverInFlowPolicyRejects(t *testing.T) {
	// Sender observes (leaks), receiver enforces: the item must be
	// rejected at the receiver and counted.
	sim := simnet.New(simnet.WithSeed(2))
	m := twoDomains()
	m.Place("edge", space.Point{}, "eu")
	m.Place("peer", space.Point{X: 5}, "us")
	edge := NewStore(sim.AddNode("edge"), m, StoreConfig{
		Peers: []simnet.NodeID{"peer"}, SyncInterval: 100 * time.Millisecond, Engine: ObservedEngine(),
	})
	peer := NewStore(sim.AddNode("peer"), m, StoreConfig{
		SyncInterval: 100 * time.Millisecond, Engine: DefaultPrivacyEngine(),
	})
	edge.Start()
	peer.Start()
	edge.Put(sensitiveItem("patient/hr"))
	sim.RunUntil(time.Second)
	if _, ok := peer.Get("patient/hr"); ok {
		t.Fatal("receiver enforcement failed")
	}
	if len(peer.engine.Violations()) == 0 {
		t.Fatal("receiver recorded no in-flow violation")
	}
}

func TestStalenessTracksProducedAt(t *testing.T) {
	sim, edge, peer := storeRig(t, "eu2", DefaultPrivacyEngine)
	sim.RunUntil(500 * time.Millisecond)
	edge.Put(publicItem("k"))
	sim.RunUntil(3 * time.Second)
	st, ok := peer.Staleness("k")
	if !ok {
		t.Fatal("item missing at peer")
	}
	if st != 2500*time.Millisecond {
		t.Fatalf("staleness = %v, want 2.5s", st)
	}
	if _, ok := peer.Staleness("ghost"); ok {
		t.Fatal("staleness of missing key")
	}
}

func TestStoreSyncSurvivesPartitionAndCatchesUp(t *testing.T) {
	sim, edge, peer := storeRig(t, "eu2", DefaultPrivacyEngine)
	sim.Partition([]simnet.NodeID{"edge"}, []simnet.NodeID{"peer"})
	edge.Put(publicItem("during-partition"))
	sim.RunUntil(2 * time.Second)
	if _, ok := peer.Get("during-partition"); ok {
		t.Fatal("item crossed partition")
	}
	sim.HealPartition()
	// The boundary-resend watermark keeps retrying the last batch; a
	// subsequent write guarantees the old one ships too (both are in
	// the delta window).
	edge.Put(publicItem("after-heal"))
	sim.RunUntil(4 * time.Second)
	if _, ok := peer.Get("after-heal"); !ok {
		t.Fatal("post-heal item missing")
	}
}

func TestItemTTLExpires(t *testing.T) {
	sim, edge, peer := storeRig(t, "eu2", DefaultPrivacyEngine)
	item := publicItem("ephemeral")
	item.Label.TTL = 2 * time.Second
	edge.Put(item)
	sim.RunUntil(time.Second)
	if _, ok := edge.Get("ephemeral"); !ok {
		t.Fatal("fresh item absent locally")
	}
	if _, ok := peer.Get("ephemeral"); !ok {
		t.Fatal("fresh item absent at peer")
	}
	sim.RunUntil(4 * time.Second)
	if _, ok := edge.Get("ephemeral"); ok {
		t.Fatal("expired item still readable locally")
	}
	if _, ok := peer.Get("ephemeral"); ok {
		t.Fatal("expired item still readable at peer")
	}
	if _, ok := peer.Staleness("ephemeral"); ok {
		t.Fatal("expired item still has staleness")
	}
	// A newer write resurrects the key.
	fresh := publicItem("ephemeral")
	fresh.Label.TTL = 2 * time.Second
	edge.Put(fresh)
	if _, ok := edge.Get("ephemeral"); !ok {
		t.Fatal("rewritten item absent")
	}
}

func TestZeroTTLNeverExpires(t *testing.T) {
	sim, edge, _ := storeRig(t, "eu2", DefaultPrivacyEngine)
	edge.Put(publicItem("forever"))
	sim.RunUntil(time.Hour)
	if _, ok := edge.Get("forever"); !ok {
		t.Fatal("TTL-less item expired")
	}
}

func TestStoreConvergesUnderLossAndDuplication(t *testing.T) {
	// The CRDT data plane must tolerate datagram loss AND duplication:
	// deltas are re-shipped (boundary watermark) and merges are
	// idempotent.
	sim := simnet.New(simnet.WithSeed(9), simnet.WithDefaultLoss(0.3), simnet.WithDuplicateProb(0.3))
	m := twoDomains()
	m.Place("edge", space.Point{}, "eu")
	m.Place("peer", space.Point{X: 5}, "eu2")
	edge := NewStore(sim.AddNode("edge"), m, StoreConfig{
		Peers: []simnet.NodeID{"peer"}, SyncInterval: 200 * time.Millisecond,
	})
	peer := NewStore(sim.AddNode("peer"), m, StoreConfig{SyncInterval: 200 * time.Millisecond})
	edge.Start()
	peer.Start()

	for i := 0; i < 20; i++ {
		i := i
		sim.At(time.Duration(i)*time.Second, func() {
			item := publicItem("k")
			item.Value = float64(i)
			edge.Put(item)
		})
	}
	sim.RunUntil(40 * time.Second)
	got, ok := peer.Get("k")
	if !ok || got.Value != 19.0 {
		t.Fatalf("peer value = %+v/%v, want final write 19", got, ok)
	}
}

func TestLineageSingleHop(t *testing.T) {
	sim, edge, peer := storeRig(t, "eu2", DefaultPrivacyEngine)
	edge.Put(publicItem("k"))
	sim.RunUntil(time.Second)

	local := edge.Lineage("k")
	if len(local) != 1 || local[0].Node != "edge" || local[0].Action != "produced" {
		t.Fatalf("producer lineage = %+v", local)
	}
	remote := peer.Lineage("k")
	if len(remote) != 2 {
		t.Fatalf("consumer lineage = %+v, want produced+received", remote)
	}
	if remote[0].Action != "produced" || remote[1].Action != "received" || remote[1].Node != "peer" {
		t.Fatalf("consumer lineage = %+v", remote)
	}
	if remote[1].At < remote[0].At {
		t.Fatal("lineage timestamps not ordered")
	}
}

func TestLineageMultiHopRelay(t *testing.T) {
	// producer → relay → consumer: the consumer sees three hops.
	sim := simnet.New(simnet.WithSeed(5))
	m := twoDomains()
	m.Place("producer", space.Point{}, "eu")
	m.Place("relay", space.Point{X: 5}, "eu")
	m.Place("consumer", space.Point{X: 10}, "eu2")

	producer := NewStore(sim.AddNode("producer"), m, StoreConfig{
		Peers: []simnet.NodeID{"relay"}, SyncInterval: 100 * time.Millisecond,
	})
	// Forwarding received entries onward is the relay role: a plain
	// store ships only its local writes.
	relay := NewStore(sim.AddNode("relay"), m, StoreConfig{
		Peers: []simnet.NodeID{"consumer"}, SyncInterval: 100 * time.Millisecond,
		Relay: true,
	})
	consumer := NewStore(sim.AddNode("consumer"), m, StoreConfig{
		SyncInterval: 100 * time.Millisecond,
	})
	producer.Start()
	relay.Start()
	consumer.Start()

	producer.Put(publicItem("k"))
	sim.RunUntil(2 * time.Second)

	hops := consumer.Lineage("k")
	if len(hops) != 3 {
		t.Fatalf("lineage = %+v, want 3 hops", hops)
	}
	wantNodes := []string{"producer", "relay", "consumer"}
	for i, w := range wantNodes {
		if hops[i].Node != w {
			t.Fatalf("hop %d = %+v, want node %s", i, hops[i], w)
		}
	}
}

func TestLineageMissingKey(t *testing.T) {
	_, edge, _ := storeRig(t, "eu2", DefaultPrivacyEngine)
	if got := edge.Lineage("ghost"); got != nil {
		t.Fatalf("lineage of missing key = %v", got)
	}
}

func TestWithHopDoesNotMutateOriginal(t *testing.T) {
	orig := publicItem("k")
	orig.Lineage = []Hop{{Node: "a", Action: "produced"}}
	hopped := orig.WithHop(Hop{Node: "b", Action: "received"})
	if len(orig.Lineage) != 1 {
		t.Fatal("WithHop mutated the original")
	}
	if len(hopped.Lineage) != 2 || hopped.Lineage[1].Node != "b" {
		t.Fatalf("hopped lineage = %+v", hopped.Lineage)
	}
}

func TestStoreQuiescentAfterConvergence(t *testing.T) {
	// The delta protocol's whole point: once every peer has acked, a
	// store with no new writes ships nothing — no frames, no entries.
	// (The old watermark protocol re-shipped its newest entries every
	// turn thanks to a boundary off-by-one.)
	sim, edge, peer := storeRig(t, "eu2", DefaultPrivacyEngine)
	edge.Put(publicItem("k1"))
	edge.Put(publicItem("k2"))
	sim.RunUntil(2 * time.Second)
	if _, ok := peer.Get("k2"); !ok {
		t.Fatal("not converged")
	}
	mid := edge.SyncStats()
	sim.RunUntil(30 * time.Second)
	end := edge.SyncStats()
	if end.FramesSent != mid.FramesSent || end.EntriesSent != mid.EntriesSent {
		t.Fatalf("converged store kept sending: %+v -> %+v", mid, end)
	}
	if end.BytesSent != mid.BytesSent {
		t.Fatalf("converged store kept spending bytes: %d -> %d", mid.BytesSent, end.BytesSent)
	}
}

func TestHealShipsExactlyMissedKeys(t *testing.T) {
	// While the peer is partitioned away, the edge overwrites one key
	// many times and writes a second key. On heal the peer must receive
	// exactly the two coalesced keys — not one entry per overwrite, and
	// not a full reship of keys it already holds.
	sim, edge, peer := storeRig(t, "eu2", DefaultPrivacyEngine)
	edge.Put(publicItem("settled"))
	sim.RunUntil(2 * time.Second)
	if _, ok := peer.Get("settled"); !ok {
		t.Fatal("pre-partition key missing")
	}

	sim.Partition([]simnet.NodeID{"edge"}, []simnet.NodeID{"peer"})
	for i := 0; i < 10; i++ {
		item := publicItem("hot")
		item.Value = float64(i)
		edge.Put(item)
	}
	edge.Put(publicItem("cold"))
	// Before any sync turn the backlog is the coalesced key set.
	if got := edge.PendingFor("peer"); got != 2 {
		t.Fatalf("pending for downed peer = %d, want 2 coalesced keys", got)
	}
	sim.RunUntil(4 * time.Second)

	before := peer.SyncStats()
	sim.HealPartition()
	sim.RunUntil(8 * time.Second)
	after := peer.SyncStats()
	got, ok := peer.Get("hot")
	if !ok || got.Value != 9.0 {
		t.Fatalf("hot = %+v/%v, want final overwrite", got, ok)
	}
	if _, ok := peer.Get("cold"); !ok {
		t.Fatal("cold missing after heal")
	}
	// Exactly the missed keys crossed the wire: the settled key did not
	// reship and the ten overwrites collapsed to one entry.
	if in := after.EntriesIn - before.EntriesIn; in != 2 {
		t.Fatalf("entries shipped on heal = %d, want 2", in)
	}
}

func TestPolicyRejectedKeysDoNotConsumeFrames(t *testing.T) {
	// Sensitive items bound for another jurisdiction are dropped from
	// the delta buffer at the sender — they must not occupy frames,
	// generate retransmissions, or stall acks for admissible entries.
	sim, edge, peer := storeRig(t, "us", DefaultPrivacyEngine)
	for i := 0; i < 5; i++ {
		edge.Put(sensitiveItem(fmt.Sprintf("secret/%d", i)))
	}
	edge.Put(publicItem("open"))
	sim.RunUntil(2 * time.Second)
	if _, ok := peer.Get("open"); !ok {
		t.Fatal("admissible key blocked")
	}
	st := edge.SyncStats()
	if st.EntriesSent != 1 {
		t.Fatalf("entries sent = %d, want only the admissible one", st.EntriesSent)
	}
	if edge.PendingFor("peer") != 0 {
		t.Fatal("rejected keys stuck in the delta buffer")
	}
	mid := st
	sim.RunUntil(10 * time.Second)
	end := edge.SyncStats()
	if end.FramesSent != mid.FramesSent {
		t.Fatal("rejected keys caused retransmission")
	}
}

func TestRelayedFramesStopTheChain(t *testing.T) {
	// hub → a, with a peered back to hub: a receives a relayed frame
	// and must not dirty it back toward the hub (or anyone) — a hub
	// broadcast terminates redistribution.
	sim := simnet.New(simnet.WithSeed(7))
	m := twoDomains()
	m.Place("hub", space.Point{}, "eu")
	m.Place("origin", space.Point{X: 5}, "eu")
	m.Place("a", space.Point{X: 10}, "eu")

	hub := NewStore(sim.AddNode("hub"), m, StoreConfig{
		Peers: []simnet.NodeID{"origin", "a"}, SyncInterval: 100 * time.Millisecond, Relay: true,
	})
	origin := NewStore(sim.AddNode("origin"), m, StoreConfig{
		Peers: []simnet.NodeID{"hub"}, SyncInterval: 100 * time.Millisecond,
	})
	a := NewStore(sim.AddNode("a"), m, StoreConfig{
		Peers: []simnet.NodeID{"hub"}, SyncInterval: 100 * time.Millisecond,
	})
	hub.Start()
	origin.Start()
	a.Start()

	origin.Put(publicItem("k"))
	sim.RunUntil(2 * time.Second)
	if _, ok := a.Get("k"); !ok {
		t.Fatal("hub did not relay")
	}
	// a's only traffic toward the hub is acks: no frames, no entries.
	if st := a.SyncStats(); st.EntriesSent != 0 {
		t.Fatalf("non-relay store re-forwarded %d relayed entries", st.EntriesSent)
	}
}

func TestRelayInterestScopesRedistribution(t *testing.T) {
	// Two consumers behind a hub: one declares interest in "temp/*"
	// only, the other never declares. The hub must relay everything to
	// the undeclared peer and only the declared keys to the scoped one.
	sim := simnet.New(simnet.WithSeed(8))
	m := twoDomains()
	m.Place("hub", space.Point{}, "eu")
	m.Place("origin", space.Point{X: 5}, "eu")
	m.Place("scoped", space.Point{X: 10}, "eu")
	m.Place("wide", space.Point{X: 15}, "eu")

	hub := NewStore(sim.AddNode("hub"), m, StoreConfig{
		Peers: []simnet.NodeID{"origin", "scoped", "wide"}, SyncInterval: 100 * time.Millisecond, Relay: true,
	})
	origin := NewStore(sim.AddNode("origin"), m, StoreConfig{
		Peers: []simnet.NodeID{"hub"}, SyncInterval: 100 * time.Millisecond,
	})
	scoped := NewStore(sim.AddNode("scoped"), m, StoreConfig{
		Peers: []simnet.NodeID{"hub"}, SyncInterval: 100 * time.Millisecond,
	})
	wide := NewStore(sim.AddNode("wide"), m, StoreConfig{
		Peers: []simnet.NodeID{"hub"}, SyncInterval: 100 * time.Millisecond,
	})
	hub.Start()
	origin.Start()
	scoped.Start()
	wide.Start()
	scoped.DeclareInterest("hub", []string{"temp/1"})

	origin.Put(publicItem("temp/1"))
	origin.Put(publicItem("occ/1"))
	sim.RunUntil(2 * time.Second)

	if _, ok := scoped.Get("temp/1"); !ok {
		t.Fatal("declared key not relayed")
	}
	if _, ok := scoped.Get("occ/1"); ok {
		t.Fatal("undeclared key relayed to scoped peer")
	}
	for _, k := range []string{"temp/1", "occ/1"} {
		if _, ok := wide.Get(k); !ok {
			t.Fatalf("undeclared peer missing %s: interest leaked", k)
		}
	}
}

func TestRelayInterestPreSeedsNewKeys(t *testing.T) {
	// A peer that declares interest in a key the hub already holds gets
	// the current state immediately — a controller that just gained a
	// zone must not wait for the next upstream write.
	sim := simnet.New(simnet.WithSeed(11))
	m := twoDomains()
	m.Place("hub", space.Point{}, "eu")
	m.Place("origin", space.Point{X: 5}, "eu")
	m.Place("late", space.Point{X: 10}, "eu")

	hub := NewStore(sim.AddNode("hub"), m, StoreConfig{
		Peers: []simnet.NodeID{"origin", "late"}, SyncInterval: 100 * time.Millisecond, Relay: true,
	})
	origin := NewStore(sim.AddNode("origin"), m, StoreConfig{
		Peers: []simnet.NodeID{"hub"}, SyncInterval: 100 * time.Millisecond,
	})
	late := NewStore(sim.AddNode("late"), m, StoreConfig{
		Peers: []simnet.NodeID{"hub"}, SyncInterval: 100 * time.Millisecond,
	})
	hub.Start()
	origin.Start()
	late.Start()
	// Scope "late" to nothing; the hub learns the empty set.
	late.DeclareInterest("hub", nil)

	origin.Put(publicItem("zone9"))
	sim.RunUntil(2 * time.Second)
	if _, ok := late.Get("zone9"); ok {
		t.Fatal("key outside the declared set was relayed")
	}

	// Now the peer gains the zone. No further upstream writes happen;
	// the pre-seed alone must deliver the hub's current entry.
	sim.At(2*time.Second+time.Millisecond, func() {
		late.DeclareInterest("hub", []string{"zone9"})
	})
	sim.RunUntil(4 * time.Second)
	if _, ok := late.Get("zone9"); !ok {
		t.Fatal("newly declared key not pre-seeded from hub state")
	}
}

func TestStoreKeysSorted(t *testing.T) {
	_, edge, _ := storeRig(t, "eu2", DefaultPrivacyEngine)
	edge.Put(publicItem("b"))
	edge.Put(publicItem("a"))
	keys := edge.Keys()
	if len(keys) != 2 || keys[0] != "a" {
		t.Fatalf("keys = %v", keys)
	}
	if _, ok := edge.Get("a"); !ok {
		t.Fatal("local get failed")
	}
}

// TestSyncWithinFollowsTheWrite: at an hour's anti-entropy period only
// SyncWithin moves data. Ten writes inside one window share one turn
// and one frame, and a crash that swallows an armed turn does not
// leave the trigger dead: the next write after recovery arms again.
func TestSyncWithinFollowsTheWrite(t *testing.T) {
	const window = 25 * time.Millisecond
	sim := simnet.New(simnet.WithSeed(1))
	m := twoDomains()
	m.Place("edge", space.Point{}, "eu")
	m.Place("peer", space.Point{}, "eu2")
	edge := NewStore(sim.AddNode("edge"), m, StoreConfig{Peers: []simnet.NodeID{"peer"}, SyncInterval: time.Hour})
	peer := NewStore(sim.AddNode("peer"), m, StoreConfig{Peers: []simnet.NodeID{"edge"}, SyncInterval: time.Hour})
	edge.Start()
	peer.Start()
	write := func(at time.Duration, key string) {
		sim.At(at, func() {
			edge.Put(publicItem(key))
			edge.SyncWithin(window)
		})
	}
	for i := 0; i < 10; i++ {
		write(time.Duration(i)*time.Millisecond, fmt.Sprintf("burst/%d", i))
	}
	sim.RunUntil(4 * window)
	if got := len(peer.Keys()); got != 10 {
		t.Fatalf("peer holds %d of the burst's 10 keys after %v", got, 4*window)
	}
	if frames := edge.SyncStats().FramesSent; frames != 1 {
		t.Fatalf("the burst took %d frames, want 1", frames)
	}

	// The armed turn falls due while the edge is down and is swallowed.
	write(200*time.Millisecond, "before-crash")
	sim.At(205*time.Millisecond, func() { sim.SetDown("edge", true) })
	sim.At(300*time.Millisecond, func() { sim.SetDown("edge", false) })
	write(310*time.Millisecond, "after-crash")
	sim.RunUntil(310*time.Millisecond + 4*window)
	for _, k := range []string{"before-crash", "after-crash"} {
		if _, ok := peer.Get(k); !ok {
			t.Fatalf("peer lacks %q %v after the post-crash write", k, 4*window)
		}
	}
}
