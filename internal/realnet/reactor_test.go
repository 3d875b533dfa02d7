package realnet

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

// TestReactorSendRacingClose closes a node of a serialized cluster
// while four goroutines send from it and its loop holds delayed
// packets, then opens sockets that may take the number of the node's
// released fd: no datagram leaves through them (the sink would see
// their address), a send after Close reports false, and the delayed
// packets falling due after the senders stop write nothing. Run under
// -race: a send that read the fd unguarded would race Close.
func TestReactorSendRacingClose(t *testing.T) {
	RegisterWireType(pingMsg{})
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	_ = sink.SetReadBuffer(socketBuffer)
	const lead = 100 * time.Millisecond
	for round := 0; round < 5; round++ {
		c := NewCluster(ClusterConfig{Seed: 1, Serialize: true})
		a, err := c.AddNode("a")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if err := a.AddPeer("sink", sink.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
		if err := a.AddPeer("late", sink.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
		a.ShapeLink("late", lead, 0)
		for i := 0; i < 10; i++ {
			if !a.Send("late", pingMsg{N: i}) {
				t.Fatal("delayed send refused")
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						a.Send("sink", pingMsg{N: 1})
					}
				}
			}()
		}
		time.Sleep(time.Millisecond)
		a.Close()
		reuse := make(map[string]bool)
		var conns []*net.UDPConn
		for i := 0; i < 4; i++ {
			conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, conn)
			reuse[conn.LocalAddr().String()] = true
		}
		if a.Send("sink", pingMsg{N: 2}) {
			t.Error("Send after Close reported true")
		}
		close(stop)
		wg.Wait()
		// A write that beat Close may be counted after it returned; the
		// delayed packets, due later, must not be written at all.
		sent := a.NetStats().Sent
		time.Sleep(2 * lead)
		if got := a.NetStats().Sent; got != sent {
			t.Errorf("round %d: %d datagrams counted sent after Close returned", round, got-sent)
		}
		c.Close()
		buf := make([]byte, maxDatagram)
		for {
			_ = sink.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			_, from, err := sink.ReadFromUDP(buf)
			if err != nil {
				break
			}
			if reuse[from.String()] {
				t.Fatalf("round %d: a datagram left through %v, a socket opened after Close", round, from)
			}
		}
		for _, conn := range conns {
			conn.Close()
		}
	}
}

// TestReactorWriteAllocatesNothing writes an encoded datagram on a
// serialized cluster's socket: on Linux the peer's sockaddr was built
// once, in AddPeer, so the write allocates nothing. The datagrams go to
// a sink that nothing in the process reads, since AllocsPerRun counts
// every goroutine's allocations and a loop decoding them would add its
// own.
func TestReactorWriteAllocatesNothing(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH == "386" {
		t.Skip("sockets are polled only on Linux")
	}
	RegisterWireType(pingMsg{})
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	c := NewCluster(ClusterConfig{Seed: 1, Serialize: true})
	defer c.Close()
	a, err := c.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer("sink", sink.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	data, ok := a.encode(nil, pingMsg{N: 1})
	if !ok {
		t.Fatal("encode failed")
	}
	a.mu.Lock()
	p := a.peers["sink"]
	a.mu.Unlock()
	if allocs := testing.AllocsPerRun(100, func() { a.write(data, p) }); allocs != 0 {
		t.Errorf("a write makes %.0f allocations, want 0", allocs)
	}
}

// TestDelayLineRefusalAllocatesNothing fills a shaped link to
// shapeQueueCap: a send past the bound is refused before its message is
// encoded, so it allocates nothing, and counts as dropped.
func TestDelayLineRefusalAllocatesNothing(t *testing.T) {
	h := newShaperHarness(t, "a", "b")
	a := h.cluster.node("a")
	a.ShapeLink("b", time.Hour, 0)
	var msg simnet.Message = pingMsg{N: 1}
	for i := 0; i < shapeQueueCap; i++ {
		if !a.Send("b", msg) {
			t.Fatalf("send %d into a link with room refused", i)
		}
	}
	before := a.NetStats().Dropped
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		if a.Send("b", msg) {
			t.Fatal("a send past shapeQueueCap was queued")
		}
	})
	if allocs != 0 {
		t.Errorf("a refused send makes %.0f allocations, want 0", allocs)
	}
	// AllocsPerRun calls once more to warm up.
	if got := a.NetStats().Dropped - before; got != runs+1 {
		t.Errorf("%d refused sends counted %d dropped", runs+1, got)
	}
}
