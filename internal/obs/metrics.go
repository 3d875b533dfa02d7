package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families (counters, gauges, histograms)
// and renders them in the Prometheus text exposition format. All
// methods are safe for concurrent use; the individual metric handles
// returned are lock-free (counters, gauges) or internally locked
// (histograms), so hot paths never touch the registry mutex after the
// first lookup.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help, typ string
	series          map[string]interface{} // label signature → metric handle
}

// NewRegistry constructs an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []uint64  // per finite bound, non-cumulative
	inf    uint64
	sum    float64
	count  uint64
}

// DefBuckets is a general-purpose latency bucket layout in seconds.
var DefBuckets = []float64{.001, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.sum += v
	h.count++
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			placed = true
			break
		}
	}
	if !placed {
		h.inf++
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// inlinePairs is how many label pairs appendSignature orders in a
// stack array; a lookup with more allocates its order.
const inlinePairs = 8

// appendSignature appends the canonical rendering of label pairs to b:
// nothing for none, otherwise {k="v",...} sorted by key, equal keys in
// call order, values escaped. labels are alternating key, value; an
// odd trailing key is ignored. It allocates only if b must grow or
// there are more than inlinePairs pairs.
func appendSignature(b []byte, labels []string) []byte {
	n := len(labels) / 2
	if n == 0 {
		return b
	}
	var small [inlinePairs]int
	order := small[:0]
	if n > len(small) {
		order = make([]int, 0, n)
	}
	// Insertion sort by key: stable, and a series has a handful of pairs.
	for i := 0; i < n; i++ {
		j := len(order)
		order = append(order, i)
		for ; j > 0 && labels[2*order[j-1]] > labels[2*i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	b = append(b, '{')
	for k, i := range order {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[2*i]...)
		b = append(b, `="`...)
		b = appendEscaped(b, labels[2*i+1])
		b = append(b, '"')
	}
	return append(b, '}')
}

// appendEscaped appends a label value with backslash, newline and
// double quote escaped, as the text format requires.
func appendEscaped(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		case '"':
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// lookup returns the series of family name with the given labels,
// registering both on first use. Finding an existing series allocates
// nothing: the signature is built on the stack and the map is indexed
// by it without a string copy.
func (r *Registry) lookup(name, help, typ string, labels []string, make func() interface{}) interface{} {
	var buf [128]byte
	sig := appendSignature(buf[:0], labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]interface{}{}}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	m, ok := f.series[string(sig)]
	if !ok {
		m = make()
		f.series[string(sig)] = m
	}
	return m
}

// Counter returns (registering on first use) the counter with the
// given name and label pairs. Repeated calls with the same identity
// return the same handle.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.lookup(name, help, "counter", labels, func() interface{} { return &Counter{} }).(*Counter)
}

// Gauge returns (registering on first use) the gauge with the given
// name and label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.lookup(name, help, "gauge", labels, func() interface{} { return &Gauge{} }).(*Gauge)
}

// Histogram returns (registering on first use) the histogram with the
// given name, bucket upper bounds (nil takes DefBuckets) and label
// pairs. Bounds are fixed by the first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.lookup(name, help, "histogram", labels, func() interface{} {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		return &Histogram{bounds: bs, counts: make([]uint64, len(bs))}
	}).(*Histogram)
}

// Expose writes every registered metric in the Prometheus text format
// (version 0.0.4), families and series sorted for deterministic
// output.
func (r *Registry) Expose(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot family structure under the lock; metric values are read
	// afterwards from their own synchronized handles.
	type seriesSnap struct {
		sig string
		m   interface{}
	}
	type famSnap struct {
		name, help, typ string
		series          []seriesSnap
	}
	snaps := make([]famSnap, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		fs := famSnap{name: f.name, help: f.help, typ: f.typ}
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			fs.series = append(fs.series, seriesSnap{sig, f.series[sig]})
		}
		snaps = append(snaps, fs)
	}
	r.mu.Unlock()

	for _, f := range snaps {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := exposeSeries(w, f.name, s.sig, s.m); err != nil {
				return err
			}
		}
	}
	return nil
}

func exposeSeries(w io.Writer, name, sig string, m interface{}) error {
	switch v := m.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, sig, v.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, sig, formatFloat(v.Value()))
		return err
	case *Histogram:
		v.mu.Lock()
		bounds := v.bounds
		counts := append([]uint64(nil), v.counts...)
		inf, sum, count := v.inf, v.sum, v.count
		v.mu.Unlock()
		cum := uint64(0)
		for i, b := range bounds {
			cum += counts[i]
			if err := writeBucket(w, name, sig, formatFloat(b), cum); err != nil {
				return err
			}
		}
		cum += inf
		if err := writeBucket(w, name, sig, "+Inf", cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, sig, formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, sig, count)
		return err
	default:
		return fmt.Errorf("obs: unknown metric type %T", m)
	}
}

// writeBucket emits one cumulative histogram bucket, splicing the le
// label into the series' label signature.
func writeBucket(w io.Writer, name, sig, le string, cum uint64) error {
	var labels string
	if sig == "" {
		labels = fmt.Sprintf(`{le="%s"}`, le)
	} else {
		labels = sig[:len(sig)-1] + fmt.Sprintf(`,le="%s"}`, le)
	}
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labels, cum)
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WatchBus subscribes the registry to a bus, counting every event into
// riot_events_total{kind,node} and observing span durations into
// riot_span_seconds{kind}. Close the returned subscription to stop.
func (r *Registry) WatchBus(bus *Bus) *Subscription {
	return bus.SubscribeFunc(func(ev Event) {
		r.Counter("riot_events_total", "observability events by kind", "kind", ev.Kind).Inc()
		if ev.Dur > 0 {
			r.Histogram("riot_span_seconds", "span durations by kind", nil, "kind", ev.Kind).
				Observe(ev.Dur.Seconds())
		}
	})
}
