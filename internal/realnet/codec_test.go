package realnet_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/crdt"
	"repro/internal/dataflow"
	"repro/internal/gossip"
	"repro/internal/realnet"
	"repro/internal/simnet"
)

// liveTypes is every message type a live city node puts on the wire:
// the simnet.Envelope every port carries and the types
// core.registerLiveWire registers (serve and riotnode register a
// subset: gossip, dataflow and the mux envelope). Each is registered
// with the codec under test and with gob, which lives on here as the
// reference the codec replaced.
var liveTypes = func() []reflect.Type {
	var ts []reflect.Type
	register := func(v any) {
		realnet.RegisterWireType(v)
		gob.Register(v)
		ts = append(ts, reflect.TypeOf(v))
	}
	register(simnet.Envelope{})
	core.RegisterWire(register)
	return ts
}()

// build fills a wire type other packages keep unexported, found by its
// short name (e.g. "gossip.pingMsg").
func build(name string, fields map[string]any) any {
	for _, t := range liveTypes {
		if t.String() == name {
			v := reflect.New(t).Elem()
			for f, x := range fields {
				v.FieldByName(f).Set(reflect.ValueOf(x))
			}
			return v.Interface()
		}
	}
	panic("no wire type " + name)
}

// muxPing is the datagram the live city sends most: a gossip ping with
// one piggybacked update, inside the mux envelope.
func muxPing() any {
	return build("simnet.envelope", map[string]any{
		"Proto": "gossip",
		"Msg": build("gossip.pingMsg", map[string]any{
			"Seq":     uint64(4711),
			"Updates": []gossip.Update{{ID: "edge-17", Status: gossip.StatusSuspect, Incarnation: 3}},
		}),
	})
}

// storeFrame is a delta-sync frame of n governed items, as a store
// cuts them.
func storeFrame(n int) any {
	entries := make([]crdt.Entry, n)
	for i := range entries {
		key := fmt.Sprintf("zone/%03d/temp", i)
		entries[i] = crdt.Entry{
			Key: key,
			Value: dataflow.Item{
				Key:        key,
				Value:      21.5 + float64(i),
				Label:      dataflow.Label{Topic: "temp", Sensitivity: dataflow.Internal, Origin: "city", Jurisdiction: "EU", TTL: time.Minute},
				ProducedAt: time.Duration(i) * time.Second,
				Lineage:    []dataflow.Hop{{Node: "sensor-1", At: time.Second, Action: "produced"}},
			},
			Ts:      time.Duration(i) * time.Millisecond,
			Replica: "edge-3",
		}
	}
	return build("simnet.envelope", map[string]any{
		"Proto": "store",
		"Msg":   build("dataflow.storeSyncMsg", map[string]any{"Seq": uint64(9), "Relayed": true, "Entries": entries}),
	})
}

// gen draws random values of wire types. Empty slices and maps are
// always nil, so a faithful codec returns exactly what went in.
type gen struct{ r *rand.Rand }

func (g gen) value(t reflect.Type, depth int) reflect.Value {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(g.r.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := int64(g.r.Uint64()) >> uint(g.r.Intn(64))
		v.Set(reflect.ValueOf(x).Convert(t))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := g.r.Uint64() >> uint(g.r.Intn(64))
		v.Set(reflect.ValueOf(x).Convert(t))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(float32(g.r.NormFloat64() * 1e3)))
	case reflect.String:
		b := make([]byte, g.r.Intn(12))
		g.r.Read(b)
		v.SetString(string(b))
	case reflect.Slice:
		if n := g.r.Intn(4); n > 0 {
			v.Set(reflect.MakeSlice(t, n, n))
			for i := 0; i < n; i++ {
				v.Index(i).Set(g.value(t.Elem(), depth))
			}
		}
	case reflect.Map:
		if n := g.r.Intn(4); n > 0 {
			v.Set(reflect.MakeMap(t))
			for i := 0; i < n; i++ {
				v.SetMapIndex(g.value(t.Key(), depth), g.value(t.Elem(), depth))
			}
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				v.Field(i).Set(g.value(t.Field(i).Type, depth))
			}
		}
	case reflect.Interface:
		// nil, a built-in scalar, or (while shallow) another wire type.
		scalars := []any{false, int(0), int64(0), uint64(0), float64(0), "", []byte(nil)}
		switch k := g.r.Intn(len(scalars) + 6); {
		case k == 0:
		case k <= len(scalars):
			v.Set(g.value(reflect.TypeOf(scalars[k-1]), depth))
		case depth < 3:
			v.Set(g.value(liveTypes[g.r.Intn(len(liveTypes))], depth+1))
		}
	default:
		panic("gen: no generator for " + t.String())
	}
	return v
}

type gobEnvelope struct {
	From    simnet.NodeID
	Payload any
}

func gobRoundTrip(t *testing.T, from simnet.NodeID, msg any) (simnet.NodeID, any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobEnvelope{from, msg}); err != nil {
		t.Fatalf("gob encode %T: %v", msg, err)
	}
	var out gobEnvelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %T: %v", msg, err)
	}
	return out.From, out.Payload
}

func roundTrip(t *testing.T, from simnet.NodeID, msg any) (simnet.NodeID, any) {
	t.Helper()
	b, err := realnet.Wire.Append(nil, from, msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	gotFrom, got, err := realnet.Wire.Decode(b)
	if err != nil {
		t.Fatalf("decode %T: %v\nvalue %+v", msg, err, msg)
	}
	return gotFrom, got
}

// TestRoundTripMatchesGob sends random values of every registered wire
// type — gossip, raft with placement maps and string commands, store
// frames with items, labels and hops, mape, pubsub with any payloads,
// envelopes, nil interfaces — through the codec and through gob: both
// must hand back exactly the value that went in.
func TestRoundTripMatchesGob(t *testing.T) {
	check := func(seed int64) bool {
		g := gen{rand.New(rand.NewSource(seed))}
		for _, typ := range liveTypes {
			from := simnet.NodeID(g.value(reflect.TypeOf(""), 0).String())
			msg := g.value(typ, 0).Interface()
			gotFrom, got := roundTrip(t, from, msg)
			refFrom, ref := gobRoundTrip(t, from, msg)
			if gotFrom != from || !reflect.DeepEqual(got, msg) {
				t.Errorf("seed %d %v: sent %+v from %q, got %+v from %q", seed, typ, msg, from, got, gotFrom)
				return false
			}
			if refFrom != gotFrom || !reflect.DeepEqual(ref, got) {
				t.Errorf("seed %d %v: codec %+v, gob %+v", seed, typ, got, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// nestedGroups carries an empty slice inside a map, a shape none of
// core's wire types has; it is registered with the codec and with gob.
type nestedGroups struct {
	Groups map[int][]simnet.NodeID
}

// Empty slices and maps arrive nil, as they did under gob, and the
// raft commands the tests propose (bare strings) ride as built-ins.
func TestRoundTripEmptyAndScalars(t *testing.T) {
	realnet.RegisterWireType(nestedGroups{})
	gob.Register(nestedGroups{})
	for _, msg := range []any{
		build("gossip.pingMsg", map[string]any{"Seq": uint64(1), "Updates": []gossip.Update{}}),
		build("dataflow.storeInterest", map[string]any{"Keys": []string{}}),
		build("core.placementCmd", map[string]any{"Assignments": map[int]simnet.NodeID{}, "Backups": map[int]simnet.NodeID{}}),
		nestedGroups{Groups: map[int][]simnet.NodeID{2: {}}},
		build("consensus.entry", map[string]any{"Term": uint64(2), "Cmd": "set x=1"}),
		dataflow.Item{Key: "k", Value: []byte{}, Lineage: []dataflow.Hop{}},
		"bare string", 42, 1.5, true,
	} {
		_, got := roundTrip(t, "a", msg)
		if _, ref := gobRoundTrip(t, "a", msg); !reflect.DeepEqual(got, ref) {
			t.Errorf("%T: codec %#v, gob %#v", msg, got, ref)
		}
	}
}

// Tags come from names, so the bytes of a value — and what another
// set makes of them — cannot depend on the order types were registered
// in: what separate riotnode processes rely on. Registering again
// changes nothing.
func TestBytesIndependentOfRegistrationOrder(t *testing.T) {
	fwd, rev := realnet.NewWireTypes(), realnet.NewWireTypes()
	for i := range liveTypes {
		fwd.Register(reflect.Zero(liveTypes[i]).Interface())
		rev.Register(reflect.Zero(liveTypes[len(liveTypes)-1-i]).Interface())
	}
	for _, typ := range liveTypes {
		rev.Register(reflect.Zero(typ).Interface())
	}
	g := gen{rand.New(rand.NewSource(7))}
	for round := 0; round < 20; round++ {
		for _, typ := range liveTypes {
			msg := g.value(typ, 0).Interface()
			a, err := fwd.Append(nil, "n", msg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := rev.Append(nil, "n", msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%v: bytes differ by registration order\n%x\n%x", typ, a, b)
			}
			if _, got, err := rev.Decode(a); err != nil || !reflect.DeepEqual(got, msg) {
				t.Fatalf("%v: other set decoded %+v (%v), want %+v", typ, got, err, msg)
			}
		}
	}
}

type unregisteredMsg struct{ N int }

type wirePing struct{ N int }

func TestSendUnregisteredTypeReportsFalse(t *testing.T) {
	realnet.RegisterWireType(wirePing{})
	_, a, _ := loopbackPair(t, func(simnet.NodeID, simnet.Message) {})
	if a.Send("b", unregisteredMsg{1}) {
		t.Fatal("Send of an unregistered type reported true")
	}
	if a.Send("b", dataflow.Item{Key: "k", Value: unregisteredMsg{1}}) {
		t.Fatal("Send with an unregistered type inside an interface field reported true")
	}
	if a.Send("b", nil) {
		t.Fatal("Send(nil) reported true")
	}
	if !a.Send("b", wirePing{1}) {
		t.Fatal("Send of a registered type reported false")
	}
	if st := a.NetStats(); st.Sent != 1 {
		t.Fatalf("Sent = %d, want 1", st.Sent)
	}
}

// Two names FNV-1a maps to one tag (found by search).
type (
	tagClash26948  struct{ N int }
	tagClash388042 struct{ N int }
)

type cyclic struct{ Next *cyclic }

type tree struct{ Kids []tree }

func TestRegisterPanicsOnCollisionAndUnsupportedKinds(t *testing.T) {
	mustPanic := func(name string, v any) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RegisterWireType did not panic", name)
			}
		}()
		realnet.NewWireTypes().Register(v)
	}
	mustPanic("chan field", struct{ C chan int }{})
	mustPanic("func field", struct{ F func() }{})
	mustPanic("pointer cycle", cyclic{})
	mustPanic("slice cycle", tree{})
	mustPanic("float map key", map[float64]int{})
	mustPanic("array", [4]int{})
	mustPanic("nil", nil)

	w := realnet.NewWireTypes()
	w.Register(tagClash26948{})
	w.Register(tagClash26948{}) // idempotent
	defer func() {
		if recover() == nil {
			t.Error("registering a second name with the same tag did not panic")
		}
	}()
	w.Register(tagClash388042{})
}

// loopbackPair starts a cluster of two peered nodes, a and b, on
// loopback, b delivering to h.
func loopbackPair(tb testing.TB, h simnet.Handler) (c *realnet.Cluster, a, b *realnet.Node) {
	tb.Helper()
	c = realnet.NewCluster(realnet.ClusterConfig{Seed: 1})
	tb.Cleanup(c.Close)
	var err error
	if a, err = c.AddNode("a"); err != nil {
		tb.Fatal(err)
	}
	if b, err = c.AddNode("b"); err != nil {
		tb.Fatal(err)
	}
	b.OnMessage(h)
	if err := c.Start(); err != nil {
		tb.Fatal(err)
	}
	return c, a, b
}

// A datagram the codec refuses is a counted drop; the node keeps
// serving.
func TestMalformedDatagramsAreCounted(t *testing.T) {
	realnet.RegisterWireType(wirePing{})
	got := make(chan simnet.Message, 1)
	c, a, b := loopbackPair(t, func(_ simnet.NodeID, m simnet.Message) { got <- m })

	good, err := realnet.Wire.Append(nil, "a", wirePing{7})
	if err != nil {
		t.Fatal(err)
	}
	wrongVersion := append([]byte(nil), good...)
	wrongVersion[0]++
	unknownTag := append([]byte(nil), good...)
	unknownTag[3] ^= 0xff // first tag byte, after version and "\x01a"
	bad := [][]byte{
		[]byte("\x00not a datagram at all"),
		good[:len(good)-1],
		wrongVersion,
		unknownTag,
		append(append([]byte(nil), good...), 0),
	}
	conn, err := net.Dial("udp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, d := range bad {
		if _, err := conn.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); b.NetStats().Malformed < int64(len(bad)); {
		if time.Now().After(deadline) {
			t.Fatalf("Malformed = %d, want %d", b.NetStats().Malformed, len(bad))
		}
		time.Sleep(time.Millisecond)
	}
	if !a.Send("b", wirePing{7}) {
		t.Fatal("Send after garbage failed")
	}
	select {
	case m := <-got:
		if m != (wirePing{7}) {
			t.Fatalf("delivered %+v, want wirePing{7}", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("good datagram not delivered after malformed ones")
	}
	if st := c.NetStats(); st.Malformed != int64(len(bad)) || st.Received != 1 {
		t.Fatalf("cluster Malformed=%d Received=%d, want %d and 1", st.Malformed, st.Received, len(bad))
	}
}

// Send is called from the event loop and, by the benchmark's probes,
// from outside it: concurrent callers must not share an encode buffer.
// Run under -race; a shared buffer would also show as datagrams that
// arrive malformed or carry another sender's number.
func TestSendConcurrentCallers(t *testing.T) {
	realnet.RegisterWireType(wirePing{})
	const senders, each = 4, 200
	seen := make(chan int, senders*each)
	c, a, _ := loopbackPair(t, func(_ simnet.NodeID, m simnet.Message) { seen <- m.(wirePing).N })
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a.Send("b", wirePing{s*each + i})
			}
		}(s)
	}
	wg.Wait()
	sent := c.NetStats().Sent
	for deadline := time.Now().Add(2 * time.Second); c.NetStats().Received < sent*9/10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	st := c.NetStats()
	if st.Malformed != 0 || st.Received < sent*9/10 {
		t.Fatalf("sent %d, received %d, malformed %d", sent, st.Received, st.Malformed)
	}
	got := make(map[int]bool)
	for k := len(seen); k > 0; k-- {
		n := <-seen
		if n < 0 || n >= senders*each || got[n] {
			t.Fatalf("received wirePing{%d}: out of range or twice", n)
		}
		got[n] = true
	}
}

// The allocation gates of the ledger: encoding into a reused buffer
// allocates nothing, and decoding a ping allocates only what it hands
// back (two strings, two boxed structs and their interfaces, one
// slice) — the ~280 per datagram of a fresh gob stream cannot return.
// From a known peer the sender's name is not among them: that decode
// allocates exactly one object fewer than one from an unknown sender.
func TestCodecAllocationGates(t *testing.T) {
	for name, msg := range map[string]any{"ping": muxPing(), "store frame": storeFrame(40)} {
		buf, err := realnet.Wire.Append(nil, "edge-17", msg)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { buf, _ = realnet.Wire.Append(buf[:0], "edge-17", msg) }); n != 0 {
			t.Errorf("encoding a %s into a reused buffer allocates %.0f times, want 0", name, n)
		}
	}
	buf, _ := realnet.Wire.Append(nil, "edge-17", muxPing())
	const maxPingAllocs = 10
	unknown := testing.AllocsPerRun(100, func() { realnet.Wire.Decode(buf) })
	if unknown > maxPingAllocs {
		t.Errorf("decoding a ping allocates %.0f times, want <= %d", unknown, maxPingAllocs)
	}
	known := testing.AllocsPerRun(100, func() { realnet.Wire.DecodeKnown(buf, fuzzPeers) })
	if known != unknown-1 {
		t.Errorf("decoding a ping from a known peer allocates %.0f times, want %.0f (one fewer than the %.0f from an unknown sender)", known, unknown-1, unknown)
	}
}

// fuzzPeers is a peer table as a node holds one: the benchmark's and
// fuzz seeds' sender, another name, and the empty one.
var fuzzPeers = map[string]simnet.NodeID{"edge-17": "edge-17", "cloud": "cloud", "": ""}

var benchSink any

func benchCodec(b *testing.B, msg any) {
	buf, err := realnet.Wire.Append(nil, "edge-17", msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			buf, _ = realnet.Wire.Append(buf[:0], "edge-17", msg)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			_, benchSink, _ = realnet.Wire.Decode(buf)
		}
	})
}

func BenchmarkCodecPing(b *testing.B) { benchCodec(b, muxPing()) }

func BenchmarkCodecStoreFrame(b *testing.B) { benchCodec(b, storeFrame(40)) }

// BenchmarkSendRecvLoopback is one datagram end to end: Send, the
// kernel's loopback, the reader's decode and the event loop's handler.
func BenchmarkSendRecvLoopback(b *testing.B) {
	got := make(chan struct{}, 1)
	_, a, _ := loopbackPair(b, func(simnet.NodeID, simnet.Message) { got <- struct{}{} })
	msg := muxPing()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !a.Send("b", msg) {
			b.Fatal("Send failed")
		}
		select {
		case <-got:
		case <-time.After(time.Second):
			b.Fatal("datagram lost on loopback")
		}
	}
}

// FuzzDecodeDatagram feeds the decoder what an untrusted socket might:
// it must not panic, must not allocate more than a small multiple of
// the input, and whatever it accepts must re-encode to bytes that
// decode to the same value. "Same" is judged on the re-encoding, which
// is canonical, since a NaN a fuzzer finds is not DeepEqual to itself.
// Decoding against a peer table must accept and refuse the same bytes
// and yield the same sender and message, known sender or not.
func FuzzDecodeDatagram(f *testing.F) {
	add := func(from simnet.NodeID, msg any) {
		b, err := realnet.Wire.Append(nil, from, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	g := gen{rand.New(rand.NewSource(1))}
	for _, typ := range liveTypes { // a top-level simnet.Envelope first
		add("edge-17", reflect.Zero(typ).Interface())
		add("edge-99", g.value(typ, 0).Interface()) // not in fuzzPeers
	}
	// The small messages as the protocols send them, on a raw port and
	// through the mux: a probe or ack, a vote or actuation reply, a
	// (pre-)vote request, a heartbeat, an accepted and a refused append
	// response, and every field at an extreme.
	for _, env := range []simnet.Envelope{
		{Kind: 1, A: 4711, Bytes: 16},
		{Kind: 2, A: 12, Flag: true, Bytes: 16},
		{Kind: 3, A: 9, S: "edge-17", B: 130, C: 8, Bytes: 48},
		{Kind: 5, A: 9, S: "edge-17", B: 130, C: 8, D: 128, Bytes: 56},
		{Kind: 6, A: 9, Flag: true, B: 131, Bytes: 24},
		{Kind: 6, A: 9, Bytes: 24},
		{Kind: ^uint16(0), Flag: true, A: ^uint64(0), B: 1 << 63, C: 1, D: ^uint64(0) >> 1,
			S: "edge-99", T: "edge-17", Bytes: 1<<31 - 1},
	} {
		add("edge-17", env)
		add("edge-17", build("simnet.envelope", map[string]any{"Proto": "raft", "Msg": env}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		from, msg, err := realnet.Wire.Decode(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+16<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		kfrom, kmsg, kerr := realnet.Wire.DecodeKnown(data, fuzzPeers)
		if (err == nil) != (kerr == nil) {
			t.Fatalf("without a peer table the error is %v, with one %v", err, kerr)
		}
		if err != nil {
			return
		}
		if kfrom != from {
			t.Fatalf("sender %q decodes as %q against a peer table", from, kfrom)
		}
		if len(data) > realnet.MaxDatagram {
			t.Fatalf("accepted %d bytes, over the datagram cap", len(data))
		}
		again, err := realnet.Wire.Append(nil, from, msg)
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", msg, err)
		}
		from2, msg2, err := realnet.Wire.Decode(again)
		if err != nil {
			t.Fatalf("re-encoding of %+v does not decode: %v", msg, err)
		}
		third, err := realnet.Wire.Append(nil, from2, msg2)
		if err != nil || from2 != from || !bytes.Equal(again, third) {
			t.Fatalf("round trip changed the value: %+v from %q, then %+v from %q (%v)", msg, from, msg2, from2, err)
		}
		if known, err := realnet.Wire.Append(nil, kfrom, kmsg); err != nil || !bytes.Equal(again, known) {
			t.Fatalf("decoded against a peer table: %+v, without: %+v (%v)", kmsg, msg, err)
		}
	})
}
