package simnet

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw scheduler throughput: schedule
// and execute chained timer events.
func BenchmarkEventThroughput(b *testing.B) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(time.Microsecond, tick)
	b.ResetTimer()
	s.Run()
}

// BenchmarkMessageDelivery measures end-to-end send→deliver cost.
func BenchmarkMessageDelivery(b *testing.B) {
	s := New(WithDefaultLatency(time.Microsecond))
	a := s.AddNode("a")
	rx := s.AddNode("b")
	got := 0
	rx.OnMessage(func(NodeID, Message) { got++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send("b", i)
		s.Run()
	}
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkFanOut measures a 100-node broadcast through the scheduler.
func BenchmarkFanOut(b *testing.B) {
	s := New(WithDefaultLatency(time.Microsecond))
	src := s.AddNode("src")
	const n = 100
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = NodeID(rune('A'+i%26)) + NodeID(rune('a'+i/26))
		s.AddNode(ids[i]).OnMessage(func(NodeID, Message) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			src.Send(id, i)
		}
		s.Run()
	}
}

// BenchmarkSpillArm prices arming far-future entries (past the wheel's
// L1 horizon) into an empty wheel, in each arming order of spillOrders
// and at 10^3, 10^4 and 10^5 entries. ns/entry should stay about flat
// as the count grows; TestSpillArmStaysLinear gates that.
func BenchmarkSpillArm(b *testing.B) {
	for _, order := range spillOrders {
		for _, n := range []int{1_000, 10_000, 100_000} {
			b.Run(fmt.Sprintf("%s/%d", order, n), func(b *testing.B) {
				deadlines := spillDeadlines(order, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					armSpill(newTimerWheel(), deadlines)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/entry")
			})
		}
	}
}
