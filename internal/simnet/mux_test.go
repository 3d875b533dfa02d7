package simnet

import (
	"testing"
	"time"
)

func TestMuxRoutesByProtocol(t *testing.T) {
	s := New()
	ma := NewPortMux(s.AddNode("a"))
	mb := NewPortMux(s.AddNode("b"))

	var gotX, gotY []Message
	mb.Port("x").OnMessage(func(_ NodeID, m Message) { gotX = append(gotX, m) })
	mb.Port("y").OnMessage(func(_ NodeID, m Message) { gotY = append(gotY, m) })

	ma.Port("x").Send("b", "for-x")
	ma.Port("y").Send("b", "for-y")
	ma.Port("z").Send("b", "no-handler") // silently dropped
	s.Run()

	if len(gotX) != 1 || gotX[0] != "for-x" {
		t.Fatalf("x got %v", gotX)
	}
	if len(gotY) != 1 || gotY[0] != "for-y" {
		t.Fatalf("y got %v", gotY)
	}
}

func TestMuxIgnoresNonEnvelopeTraffic(t *testing.T) {
	s := New()
	a := s.AddNode("a")
	mb := NewPortMux(s.AddNode("b"))
	called := false
	mb.Port("x").OnMessage(func(NodeID, Message) { called = true })
	a.Send("b", "raw")
	s.Run()
	if called {
		t.Fatal("raw message reached a protocol port")
	}
}

func TestMuxPortSurface(t *testing.T) {
	s := New(WithSeed(3))
	m := NewPortMux(s.AddNode("a"))
	p := m.Port("x")
	if p.ID() != "a" {
		t.Fatalf("ID = %v", p.ID())
	}
	if !p.Up() {
		t.Fatal("Up = false")
	}
	fired := 0
	p.After(time.Millisecond, func() { fired++ })
	tk := p.Every(time.Millisecond, func() { fired++ })
	s.RunUntil(3500 * time.Microsecond)
	tk.Stop()
	if fired != 4 { // 1 one-shot + ticks at 1,2,3ms
		t.Fatalf("fired = %d, want 4", fired)
	}
	if p.Now() != 3500*time.Microsecond {
		t.Fatalf("Now = %v", p.Now())
	}
	if p.Rand() == nil {
		t.Fatal("Rand is nil")
	}
	var ups, downs int
	p.OnUp(func() { ups++ })
	p.OnDown(func() { downs++ })
	s.SetDown("a", true)
	s.SetDown("a", false)
	if downs != 1 || ups != 1 {
		t.Fatalf("downs=%d ups=%d", downs, ups)
	}
}

func TestEnvelopeSize(t *testing.T) {
	e := envelope{Proto: "x", Msg: sizedMsg{n: 50}}
	if e.Size() != 54 {
		t.Fatalf("Size = %d, want 54", e.Size())
	}
}

func TestMuxTwoProtocolsDontCross(t *testing.T) {
	s := New()
	ma := NewPortMux(s.AddNode("a"))
	mb := NewPortMux(s.AddNode("b"))
	xa, xb := ma.Port("gossip"), mb.Port("gossip")
	ya, yb := ma.Port("raft"), mb.Port("raft")

	var gossipMsgs, raftMsgs int
	xb.OnMessage(func(NodeID, Message) { gossipMsgs++ })
	yb.OnMessage(func(NodeID, Message) { raftMsgs++ })
	_ = xa
	for i := 0; i < 3; i++ {
		xa.Send("b", i)
	}
	for i := 0; i < 2; i++ {
		ya.Send("b", i)
	}
	_ = yb
	s.Run()
	if gossipMsgs != 3 || raftMsgs != 2 {
		t.Fatalf("gossip=%d raft=%d, want 3/2", gossipMsgs, raftMsgs)
	}
}

// TestRawEndpointCarriesEnvelopes: an envelope sent without a mux
// reaches the destination's OnEnvelope handler, not its message
// handler, and accounts exactly its Bytes — no protocol framing, as
// for a plain boxed message — while a mux port's envelope adds the
// framing.
func TestRawEndpointCarriesEnvelopes(t *testing.T) {
	s := New()
	a, b := s.AddNode("a"), s.AddNode("b")
	var got []Envelope
	b.OnEnvelope(func(from NodeID, env *Envelope) {
		if from != "a" {
			t.Errorf("from = %q", from)
		}
		got = append(got, *env)
	})
	b.OnMessage(func(NodeID, Message) { t.Error("envelope reached the message handler") })
	want := Envelope{Kind: 3, Flag: true, A: 7, S: "a", Bytes: 24}
	if !a.SendEnvelope("b", want) {
		t.Fatal("SendEnvelope refused")
	}
	s.Run()
	if len(got) != 1 || got[0] != want {
		t.Fatalf("got %+v, want [%+v]", got, want)
	}
	if st := s.Stats(); st.Bytes != 24 || st.Delivered != 1 {
		t.Fatalf("stats %+v, want 24 bytes in 1 delivery", st)
	}

	ma, mb := NewPortMux(s.AddNode("c")), NewPortMux(s.AddNode("d"))
	mb.Port("x").OnEnvelope(func(NodeID, *Envelope) {})
	ma.Port("x").SendEnvelope("d", want)
	s.Run()
	if st := s.Stats(); st.Bytes != 24+24+protoOverhead {
		t.Fatalf("mux envelope: %d bytes in total, want %d", st.Bytes, 24+24+protoOverhead)
	}
}
