package crdt

import (
	"testing"
	"testing/quick"
	"time"
)

// --- LWWMap ---

// del tombstones key at ts the way a replica's tombstone arrives: as an
// applied entry.
func del(m *LWWMap, key string, ts time.Duration) bool {
	return m.Apply([]Entry{{Key: key, Ts: ts, Replica: m.replica, Deleted: true}}) == 1
}

// joined returns a fresh replica that has applied each map's full
// state in order, the anti-entropy path between replicas.
func joined(ms ...*LWWMap) *LWWMap {
	out := NewLWWMap("join")
	for _, m := range ms {
		out.Apply(m.State())
	}
	return out
}

func TestLWWMapSetGetDelete(t *testing.T) {
	m := NewLWWMap("a")
	m.Set("k1", 1, time.Second)
	m.Set("k2", 2, time.Second)
	if v, ok := m.Get("k1"); !ok || v != 1 {
		t.Fatalf("Get = %v/%v", v, ok)
	}
	if keys := m.Keys(); len(keys) != 2 {
		t.Fatalf("Keys = %v", keys)
	}
	del(m, "k1", 2*time.Second)
	if _, ok := m.Get("k1"); ok {
		t.Fatal("deleted key readable")
	}
	keys := m.Keys()
	if len(keys) != 1 || keys[0] != "k2" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestLWWMapOldWriteLoses(t *testing.T) {
	m := NewLWWMap("a")
	m.Set("k", "new", 2*time.Second)
	if m.Set("k", "old", time.Second) {
		t.Fatal("older write won")
	}
	if v, _ := m.Get("k"); v != "new" {
		t.Fatalf("value = %v", v)
	}
}

func TestLWWMapDeleteThenOlderWriteLoses(t *testing.T) {
	m := NewLWWMap("a")
	m.Set("k", "v", time.Second)
	del(m, "k", 3*time.Second)
	if m.Set("k", "zombie", 2*time.Second) {
		t.Fatal("write older than tombstone won")
	}
	if _, ok := m.Get("k"); ok {
		t.Fatal("zombie value resurrected")
	}
	// A genuinely newer write does resurrect.
	m.Set("k", "back", 4*time.Second)
	if v, _ := m.Get("k"); v != "back" {
		t.Fatal("newer write after delete lost")
	}
}

func TestLWWMapSinceDelta(t *testing.T) {
	m := NewLWWMap("a")
	m.Set("k1", 1, time.Second)
	m.Set("k2", 2, 2*time.Second)
	del(m, "k1", 3*time.Second)
	delta := m.Since(time.Second)
	if len(delta) != 2 {
		t.Fatalf("delta = %v", delta)
	}
	if m.MaxTimestamp() != 3*time.Second {
		t.Fatalf("MaxTimestamp = %v", m.MaxTimestamp())
	}

	peer := NewLWWMap("b")
	if won := peer.Apply(m.State()); won != 2 {
		t.Fatalf("Apply won %d, want 2", won)
	}
	if _, ok := peer.Get("k1"); ok {
		t.Fatal("tombstone did not propagate")
	}
	if v, _ := peer.Get("k2"); v != 2 {
		t.Fatal("value did not propagate")
	}
}

func TestLWWMapMergeCommutes(t *testing.T) {
	a := NewLWWMap("a")
	b := NewLWWMap("b")
	a.Set("k", "fromA", time.Second)
	b.Set("k", "fromB", time.Second) // tie → replica "b" wins
	vab, _ := joined(a, b).Get("k")
	vba, _ := joined(b, a).Get("k")
	aDelta, bDelta := a.Since(0), b.Since(0)
	a.Apply(bDelta)
	b.Apply(aDelta)
	va, _ := a.Get("k")
	vb, _ := b.Get("k")
	if va != vb || va != "fromB" || vab != va || vba != va {
		t.Fatalf("diverged: deltas %v vs %v, full state %v vs %v", va, vb, vab, vba)
	}
}

// Property: three LWWMap replicas converge under arbitrary writes and
// arbitrary pairwise merge order.
func TestLWWMapConvergence(t *testing.T) {
	keys := []string{"k1", "k2", "k3"}
	type w struct {
		Key    uint8
		Val    uint16
		Ts     uint16
		Del    bool
		Target uint8
	}
	prop := func(writes []w) bool {
		ms := []*LWWMap{NewLWWMap("a"), NewLWWMap("b"), NewLWWMap("c")}
		for _, x := range writes {
			m := ms[int(x.Target)%3]
			k := keys[int(x.Key)%3]
			if x.Del {
				del(m, k, time.Duration(x.Ts))
			} else {
				m.Set(k, x.Val, time.Duration(x.Ts))
			}
		}
		// Full pairwise exchange, two different orders.
		x := joined(ms[0], ms[1], ms[2])
		y := joined(ms[2], ms[1], ms[0])
		kx, ky := x.Keys(), y.Keys()
		if len(kx) != len(ky) {
			return false
		}
		for i := range kx {
			if kx[i] != ky[i] {
				return false
			}
			vx, _ := x.Get(kx[i])
			vy, _ := y.Get(ky[i])
			if vx != vy {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLWWMapStateSorted(t *testing.T) {
	m := NewLWWMap("a")
	m.Set("b", 1, 1)
	m.Set("a", 2, 2)
	st := m.State()
	if len(st) != 2 || st[0].Key != "a" || st[1].Key != "b" {
		t.Fatalf("State = %v", st)
	}
}
