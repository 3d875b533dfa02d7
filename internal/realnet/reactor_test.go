package realnet

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

// wakeBound is how long a sleeping shared loop may take to run work
// handed to it from another goroutine: a lost wake would leave it
// asleep until the hour-long entry every case queues first.
const wakeBound = 100 * time.Millisecond

// TestReactorWakesFromOtherGoroutines lets a serialized cluster's loop
// fall asleep with nothing due for an hour, then hands it work from
// other goroutines: a Do, a Cluster.At earlier than every queued entry,
// an After and a SetDown each run within wakeBound. On Linux the loop
// sleeps in epoll and each must write its eventfd.
func TestReactorWakesFromOtherGoroutines(t *testing.T) {
	c := NewCluster(ClusterConfig{Seed: 1, Serialize: true})
	defer c.Close()
	n, err := c.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	downs := make(chan time.Time, 1)
	n.OnDown(func() { downs <- time.Now() })
	c.At(time.Hour, func() {})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	within := func(what string, lead time.Duration, ran <-chan time.Time, start time.Time) {
		t.Helper()
		select {
		case at := <-ran:
			if took := at.Sub(start); took < lead || took > lead+wakeBound {
				t.Errorf("%s ran after %v, want %v to %v", what, took, lead, lead+wakeBound)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s from another goroutine did not wake the sleeping loop", what)
		}
	}
	for i := 0; i < 3; i++ {
		time.Sleep(10 * time.Millisecond) // the loop goes back to sleep
		ran := make(chan time.Time, 1)
		start := time.Now()
		go n.Do(func() { ran <- time.Now() })
		within("Do", 0, ran, start)

		time.Sleep(10 * time.Millisecond)
		const lead = 5 * time.Millisecond
		start = time.Now()
		go c.At(c.Now()+lead, func() { ran <- time.Now() })
		within("an earlier At", lead, ran, start)

		time.Sleep(10 * time.Millisecond)
		start = time.Now()
		go n.After(lead, func() { ran <- time.Now() })
		within("an earlier After", lead, ran, start)
	}
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	go n.SetDown(true)
	within("SetDown's hooks", 0, downs, start)
}

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
// once, in Start, so the write allocates nothing.
func TestReactorWriteAllocatesNothing(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH == "386" {
		t.Skip("sockets are polled only on Linux")
	}
	RegisterWireType(pingMsg{})
	c := NewCluster(ClusterConfig{Seed: 1, Serialize: true})
	defer c.Close()
	a, err := c.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	data, ok := a.encode(nil, pingMsg{N: 1})
	if !ok {
		t.Fatal("encode failed")
	}
	a.mu.Lock()
	p := a.peers["b"]
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
