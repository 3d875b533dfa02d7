package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/simnet"
)

// The serve workloads bring their own load generator: W client
// goroutines, one keep-alive connection each, client w pinned to node
// w mod 3, closed loop — an IoT gateway waits for its 204 before it
// sends the next reading. README.md records why the headline is not an
// open loop on this sandbox; a short paced phase in the traced run
// keeps what a closed loop hides visible.

const clusterSize = 3

// serveShape is what differs between the serve workloads.
type serveShape struct {
	keys     int
	readFrac float64
	preload  bool
}

func runServeWrite(r *run) { runServe(r, serveShape{keys: 65536}) }
func runServeRead(r *run)  { runServe(r, serveShape{keys: 1024, readFrac: 0.95, preload: true}) }

// opRec is one request as the client saw it. Times are since the
// cluster's t0.
type opRec struct {
	op
	ok         bool
	start, end time.Duration
}

// client is one closed-loop caller.
type client struct {
	id   int
	node int
	base string
	hc   *http.Client
	gen  *opGen
	t0   time.Time
	log  []opRec
	err  string // first failure, for the report
}

func newClient(id int, c *serve.Cluster, t0 time.Time, gen *opGen) *client {
	node := id % len(c.Nodes)
	return &client{
		id: id, node: node, base: c.Nodes[node].URL, gen: gen, t0: t0,
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   10 * time.Second,
		},
	}
}

func keyName(k uint32) string { return "k" + strconv.FormatUint(uint64(k), 10) }

// do sends one request and waits for its full response. A GET must
// return a value that some write put under that key; every 64th one is
// decoded to check it, the rest by status alone, to keep the client
// cheap next to the servers it shares two cores with.
func (c *client) do(o op, n int) opRec {
	rec := opRec{op: o, start: time.Since(c.t0)}
	url := c.base + "/v1/data/" + keyName(o.key)
	var (
		req  *http.Request
		err  error
		want = http.StatusOK
	)
	if o.kind == opPut {
		body := `{"value":` + strconv.FormatFloat(o.value, 'f', 0, 64) + `}`
		req, err = http.NewRequest(http.MethodPut, url, strings.NewReader(body))
		want = http.StatusNoContent
	} else {
		req, err = http.NewRequest(http.MethodGet, url, nil)
	}
	if err != nil {
		c.fail(err.Error())
		return rec
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		rec.end = time.Since(c.t0)
		c.fail(err.Error())
		return rec
	}
	var body []byte
	if o.kind == opGet && n%64 == 0 {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	rec.end = time.Since(c.t0)
	switch {
	case err != nil:
		c.fail(err.Error())
	case resp.StatusCode != want:
		c.fail(fmt.Sprintf("%s %s: status %d", req.Method, url, resp.StatusCode))
	case body != nil && !validRead(o.key, body):
		c.fail(fmt.Sprintf("GET %s: unexpected body %.80s", url, body))
	default:
		rec.ok = true
	}
	return rec
}

func (c *client) fail(msg string) {
	if c.err == "" {
		c.err = msg
	}
}

// validRead checks that a read returned the key asked for and a value
// this benchmark generated.
func validRead(key uint32, body []byte) bool {
	var view struct {
		Key   string   `json:"key"`
		Value *float64 `json:"value"`
	}
	if json.Unmarshal(body, &view) != nil || view.Value == nil || view.Key != keyName(key) {
		return false
	}
	_, _, ok := valueOrigin(*view.Value)
	return ok
}

// loop runs the closed loop until the deadline.
func (c *client) loop(until time.Time) {
	for n := len(c.log); time.Now().Before(until); n++ {
		c.log = append(c.log, c.do(c.gen.next(), n))
	}
}

// phase runs every client's closed loop for d and returns the phase's
// bounds on the clients' clock.
func phase(clients []*client, d time.Duration) (from, to time.Duration) {
	t0 := clients[0].t0
	from = time.Since(t0)
	until := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(until)
		}(c)
	}
	wg.Wait()
	return from, time.Since(t0)
}

// applyRec is one remote apply seen by a store's OnApply hook.
type applyRec struct {
	value float64
	at    time.Duration
}

// startCluster boots the cluster and returns once every node answers
// /readyz and, if asked, holds the preloaded keys.
func startCluster(sh serveShape, regs []*obs.Registry) (*serve.Cluster, error) {
	c, err := serve.StartCluster(clusterSize, serve.ClusterOptions{Registries: regs})
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for _, cn := range c.Nodes {
		for {
			resp, err := hc.Get(cn.URL + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				c.Close()
				return nil, fmt.Errorf("node %s not ready: %v", cn.ID, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if sh.preload {
		// One client per node writes a third of the keys, key k as the
		// preloader's k-th value, and the stores must converge on them.
		pre := make([]*client, len(c.Nodes))
		var wg sync.WaitGroup
		for i := range pre {
			pre[i] = newClient(i, c, time.Now(), nil)
			wg.Add(1)
			go func(cl *client, i int) {
				defer wg.Done()
				for k := i; k < sh.keys; k += len(pre) {
					cl.log = append(cl.log, cl.do(op{opPut, uint32(k), uniqueValue(preloader, uint64(k))}, 1))
				}
			}(pre[i], i)
		}
		wg.Wait()
		for _, cl := range pre {
			cl.hc.CloseIdleConnections()
			if cl.err != "" {
				c.Close()
				return nil, fmt.Errorf("preload: %s", cl.err)
			}
		}
		if !converge(c, 10*time.Second) {
			c.Close()
			return nil, fmt.Errorf("preload did not converge")
		}
	}
	return c, nil
}

// preloader is the client number preloaded values carry; load clients
// count from 0.
const preloader = 1000

// storeDigest is one store's content and backlog, read on its loop.
type storeDigest struct {
	keys    int
	hash    uint64
	pending int
}

func digest(cn *serve.ClusterNode, peers []simnet.NodeID) (d storeDigest, ok bool) {
	ok = cn.Node.Do(func() {
		h := fnv.New64a()
		var b [8]byte
		for _, k := range cn.Store.Keys() {
			item, _ := cn.Store.Get(k)
			v, _ := item.Value.(float64)
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write([]byte(k))
			h.Write(b[:])
			d.keys++
		}
		d.hash = h.Sum64()
		for _, p := range peers {
			if p != cn.ID {
				d.pending += cn.Store.PendingFor(p)
			}
		}
	})
	return d, ok
}

// converge waits until no store has a backlog for a peer and all hold
// the same keys and values.
func converge(c *serve.Cluster, limit time.Duration) bool {
	ids := make([]simnet.NodeID, len(c.Nodes))
	for i, cn := range c.Nodes {
		ids[i] = cn.ID
	}
	start := time.Now()
	for {
		same := true
		var first storeDigest
		for i, cn := range c.Nodes {
			d, ok := digest(cn, ids)
			if !ok {
				return false
			}
			if i == 0 {
				first = d
			}
			if d.pending != 0 || d.hash != first.hash || d.keys != first.keys {
				same = false
			}
		}
		if same {
			return true
		}
		if time.Since(start) > limit {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// counters are the cluster's boundary counts at one moment.
type counters struct {
	cpu        time.Duration
	wireBytes  int64
	entries    uint64
	frames     uint64
	acks       uint64
	syncBytes  uint64
	batches    uint64
	batchItems float64
	shed       uint64
}

func readCounters(c *serve.Cluster, regs []*obs.Registry) counters {
	k := counters{cpu: cpuTime()}
	for i, cn := range c.Nodes {
		k.wireBytes += cn.Node.NetStats().SentBytes
		cn.Node.Do(func() {
			st := cn.Store.SyncStats()
			k.entries += st.EntriesSent
			k.frames += st.FramesSent
			k.acks += st.AcksIn
			k.syncBytes += st.BytesSent
		})
		// The registry hands back the server's own series by name.
		h := regs[i].Histogram("riot_serve_batch_size", "", []float64{1, 2, 4, 8, 16, 32, 64, 128})
		k.batches += h.Count()
		k.batchItems += h.Sum()
		k.shed += regs[i].Counter("riot_serve_shed_total", "").Value()
	}
	return k
}

func runServe(r *run, sh serveShape) {
	if r.quick {
		sh.keys = min(sh.keys, 512)
	}
	measure := time.Duration(r.seconds * float64(time.Second))
	warm := measure / 10

	// Set-up three times; the third cluster serves the load.
	var (
		setups  []float64
		cluster *serve.Cluster
		regs    []*obs.Registry
		end     = r.spans.begin("setup", 0)
	)
	for k := 0; k < 3; k++ {
		regs = []*obs.Registry{obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()}
		t0 := time.Now()
		c, err := startCluster(sh, regs)
		if err != nil {
			r.check("cluster-ready", false, "%v", err)
			return
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < 2 {
			c.Close()
			continue
		}
		cluster = c
	}
	end()
	defer cluster.Close()
	r.set("setup_s", median(setups))
	r.count("setup_s", len(setups))

	// In a traced run every store reports each remote apply, so that one
	// PUT can be followed from its ack to each peer from outside. The
	// hook goes in through the node's loop, which owns the store.
	t0 := time.Now()
	applies := make([][]applyRec, len(cluster.Nodes))
	if r.trace {
		for i, cn := range cluster.Nodes {
			applies[i] = make([]applyRec, 0, 1<<19)
			cn.Node.Do(func() {
				cn.Store.OnApply(func(item dataflow.Item, _ simnet.NodeID) {
					if v, ok := item.Value.(float64); ok {
						applies[i] = append(applies[i], applyRec{v, time.Since(t0)})
					}
				})
			})
		}
	}

	clients := make([]*client, r.clients)
	for w := range clients {
		clients[w] = newClient(w, cluster, t0, newOpGen(r.seed, r.workload, w, sh.keys, sh.readFrac))
		clients[w].log = make([]opRec, 0, 1<<18)
	}
	end = r.spans.begin("warmup", 0)
	phase(clients, warm)
	end()

	before := readCounters(cluster, regs)
	end = r.spans.begin("run", 0)
	from, to := phase(clients, measure)
	end()
	after := readCounters(cluster, regs)

	var paced pacedResult
	if r.trace {
		end = r.spans.begin("paced", 0)
		paced = pacedPhase(r, clients, measure/2)
		end()
	}
	lastAck := time.Now()
	for _, c := range clients {
		c.hc.CloseIdleConnections()
	}

	end = r.spans.begin("check", 0)
	converged := converge(cluster, 15*time.Second)
	wait := float64(time.Since(lastAck)) / 1e6
	r.check("converged", converged, "stores equal and backlogs empty %.0f ms after the last ack", wait)
	r.set("serve.converge_ms", wait)
	checkFinalState(r, cluster, clients, sh)
	end()

	// Timings are the median over five equal windows of the measured
	// phase; counts are totals over it.
	const windows = 5
	var (
		opsPerS, p50s, p99s []float64
		all                 []float64
		acked, puts         int
		span                = (to - from) / windows
	)
	perWindow := make([][]float64, windows)
	for _, c := range clients {
		for _, rec := range c.log {
			r.op(rec.ok)
			if !rec.ok || rec.end < from || rec.end >= to {
				continue
			}
			w := min(int((rec.end-from)/span), windows-1)
			lat := float64(rec.end-rec.start) / 1e3
			perWindow[w] = append(perWindow[w], lat)
			acked++
			if rec.kind == opPut {
				puts++
			}
		}
		if c.err != "" {
			r.check(fmt.Sprintf("client-%d", c.id), false, "%s", c.err)
		}
	}
	if acked == 0 {
		r.check("served", false, "no request succeeded")
		return
	}
	for _, lats := range perWindow {
		sort.Float64s(lats)
		opsPerS = append(opsPerS, float64(len(lats))/span.Seconds())
		p50s = append(p50s, percentile(lats, 50))
		p99, _ := tail(lats, 99)
		p99s = append(p99s, p99)
		all = append(all, lats...)
	}
	sort.Float64s(all)
	p999, _ := tail(all, 99.9)
	r.set("work_per_s", median(opsPerS))
	r.count("work_per_s", acked)
	r.set("cpu_ms_per_work", (after.cpu-before.cpu).Seconds()*1e3/float64(acked))
	r.set("wire_bytes_per_work", float64(after.wireBytes-before.wireBytes)/float64(acked))
	r.set("serve.lat_p50_us", median(p50s))
	r.set("serve.lat_p99_us", median(p99s))
	r.count("serve.lat_p99_us", len(all)/windows)
	r.set("serve.lat_p999_us", p999)
	r.count("serve.lat_p999_us", len(all))
	r.set("sync.frames", float64(after.frames-before.frames))
	r.set("sync.entries", float64(after.entries-before.entries))
	r.set("sync.acks", float64(after.acks-before.acks))
	r.set("sync.bytes", float64(after.syncBytes-before.syncBytes))
	r.set("serve.shed", float64(after.shed-before.shed))
	if puts > 0 {
		r.set("sync.entries_per_put", float64(after.entries-before.entries)/float64(puts))
		r.set("serve.wire_bytes_per_put", float64(after.wireBytes-before.wireBytes)/float64(puts))
	}
	if n := after.batches - before.batches; n > 0 {
		r.set("serve.batch_mean", (after.batchItems-before.batchItems)/float64(n))
	}
	if r.trace {
		for i, cn := range cluster.Nodes {
			var snapshot []applyRec
			cn.Node.Do(func() { snapshot = applies[i] })
			applies[i] = snapshot
		}
		replication(r, clients, applies, from, to)
		paced.into(r)
	}
}

// checkFinalState holds the converged stores to what the clients were
// told. Every key holds the same value on all nodes (converge checked
// that), and on node 0 that value is, for some client that wrote the
// key, the last value that client had acknowledged: one client's
// writes go through one node, whose timestamps only grow, so only its
// last write can win — and where a single client wrote the key, it is
// that client's last write.
func checkFinalState(r *run, c *serve.Cluster, clients []*client, sh serveShape) {
	last := make(map[uint32][]float64) // key → each writer's last acked value
	for _, cl := range clients {
		mine := make(map[uint32]float64)
		for _, rec := range cl.log {
			if rec.kind == opPut && rec.ok {
				mine[rec.key] = rec.value
			}
		}
		for k, v := range mine {
			last[k] = append(last[k], v)
		}
	}
	if sh.preload {
		// Any load client's write is later than the preload's.
		for k := 0; k < sh.keys; k++ {
			if _, written := last[uint32(k)]; !written {
				last[uint32(k)] = []float64{uniqueValue(preloader, uint64(k))}
			}
		}
	}
	final := make(map[string]float64)
	c.Nodes[0].Node.Do(func() {
		for _, k := range c.Nodes[0].Store.Keys() {
			item, _ := c.Nodes[0].Store.Get(k)
			final[k], _ = item.Value.(float64)
		}
	})
	missing, wrong := 0, 0
	for k, allowed := range last {
		got, ok := final[keyName(k)]
		switch {
		case !ok:
			missing++
		case !slices.Contains(allowed, got):
			wrong++
		}
		r.op(ok && slices.Contains(allowed, got))
	}
	r.check("acked-writes-held", missing == 0 && wrong == 0 && len(final) == len(last),
		"%d keys written, %d stored; %d missing, %d holding a value that was not a writer's last acked one",
		len(last), len(final), missing, wrong)
}

// replication follows each acknowledged PUT of the measured phase to
// its two peers: ack → the peer's OnApply of that exact value. A value
// that never reached a peer was overwritten before a sync turn took it
// (coalesced). Every 100th request becomes a span with one async child
// per peer.
func replication(r *run, clients []*client, applies [][]applyRec, from, to time.Duration) {
	seen := make([]map[float64]time.Duration, len(applies))
	for i, recs := range applies {
		seen[i] = make(map[float64]time.Duration, len(recs))
		for _, a := range recs {
			if _, dup := seen[i][a.value]; !dup {
				seen[i][a.value] = a.at
			}
		}
	}
	var lags []float64
	sent, never := 0, 0
	for _, c := range clients {
		for n, rec := range c.log {
			inPhase := rec.ok && rec.end >= from && rec.end < to
			if !inPhase {
				continue
			}
			traced := n%100 == 0
			id := strconv.FormatFloat(rec.value, 'f', 0, 64)
			if traced {
				name := "req GET"
				if rec.kind == opPut {
					name = "req PUT"
				}
				r.spans.complete(name, 10+c.id, c.t0.Add(rec.start), c.t0.Add(rec.end),
					map[string]any{"key": keyName(rec.key), "node": c.node, "id": id})
			}
			if rec.kind != opPut {
				continue
			}
			for peer := range seen {
				if peer == c.node {
					continue
				}
				sent++
				at, ok := seen[peer][rec.value]
				if !ok {
					never++
					continue
				}
				lags = append(lags, float64(max(at-rec.end, 0))/1e6)
				if traced {
					r.spans.async(fmt.Sprintf("repl.n%d", peer), id, 20+peer, c.t0.Add(rec.end), c.t0.Add(max(at, rec.end)))
				}
			}
		}
	}
	if sent == 0 {
		return
	}
	sort.Float64s(lags)
	r.set("sync.coalesced_frac", float64(never)/float64(sent))
	r.set("serve.repl_p50_ms", percentile(lags, 50))
	p99, _ := tail(lags, 99)
	r.set("serve.repl_p99_ms", p99)
	r.count("serve.repl_p99_ms", len(lags))
}
