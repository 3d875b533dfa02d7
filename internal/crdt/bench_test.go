package crdt

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkLWWMapSet measures local write throughput.
func BenchmarkLWWMapSet(b *testing.B) {
	m := NewLWWMap("a")
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(keys[i%256], i, time.Duration(i))
	}
}

// BenchmarkLWWMapMergeFullState measures full-state merge between two
// 1k-key replicas.
func BenchmarkLWWMapMergeFullState(b *testing.B) {
	src := NewLWWMap("a")
	for i := 0; i < 1000; i++ {
		src.Set(fmt.Sprintf("key-%d", i), i, time.Duration(i))
	}
	state := src.State()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := NewLWWMap("b")
		dst.Apply(state)
	}
}

// BenchmarkLWWMapDelta measures incremental delta extraction.
func BenchmarkLWWMapDelta(b *testing.B) {
	m := NewLWWMap("a")
	for i := 0; i < 1000; i++ {
		m.Set(fmt.Sprintf("key-%d", i), i, time.Duration(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Since(time.Duration(900)) // last 10% of writes
	}
}
