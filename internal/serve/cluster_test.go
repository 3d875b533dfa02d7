package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// waitOK polls url until it answers 200 and returns the body: /readyz
// once the node has joined, a key once its write has replicated (two
// sync hops at most).
func waitOK(t *testing.T, url string) string {
	t.Helper()
	var body string
	waitFor(t, 5*time.Second, func() bool {
		resp, b := doReq(t, http.MethodGet, url, "")
		body = b
		return resp.StatusCode == http.StatusOK
	})
	return body
}

// nodeURLs returns each node's serve base URL, in node order.
func nodeURLs(c *Cluster) []string {
	urls := make([]string, len(c.Nodes))
	for i, cn := range c.Nodes {
		urls[i] = cn.URL
	}
	return urls
}

// TestClusterEndToEnd is the serving-path acceptance test: a 3-node
// real-socket cluster where a write accepted by one node becomes
// readable from another, membership converges, and the stream on a
// third node carries the replicated item.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	cl, err := StartCluster(3, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	urls := nodeURLs(cl)

	// Readiness: every node joins within the warmup budget.
	for _, u := range urls {
		waitOK(t, u+"/readyz")
	}

	// Subscribe on node 2 before writing on node 0.
	stream, err := http.Get(urls[2] + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	events := make(chan StreamEvent, 64)
	go func() {
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var ev StreamEvent
				if json.Unmarshal([]byte(line), &ev) == nil {
					events <- ev
				}
			}
		}
	}()

	if resp, _ := doReq(t, http.MethodPut, urls[0]+"/v1/data/city/temp", `{"value": 19.25}`); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT on node 0 = %d", resp.StatusCode)
	}

	// The write must become readable from node 2 (two sync hops max).
	var view itemView
	if err := json.Unmarshal([]byte(waitOK(t, urls[2]+"/v1/data/city/temp")), &view); err != nil {
		t.Fatal(err)
	}
	if view.Value != 19.25 {
		t.Fatalf("node 2 read %v, want 19.25", view.Value)
	}
	// Lineage shows the item travelled: produced on n0, received here.
	if len(view.Lineage) < 2 || view.Lineage[0].Node != "n0" {
		t.Fatalf("lineage = %+v", view.Lineage)
	}

	// Node 2's stream saw the item arrive from a peer.
	streamDeadline := time.After(3 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.Type == "data" && ev.Key == "city/temp" {
				if ev.From == "local" {
					t.Fatalf("node 2 stream labeled the item local: %+v", ev)
				}
				goto members
			}
		case <-streamDeadline:
			t.Fatal("stream on node 2 never carried the replicated item")
		}
	}

members:
	// Membership view on node 1 comes to hold all three alive. n2's join
	// reaches n1 on gossip's schedule, which a replicated write does not
	// wait for.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := doReq(t, http.MethodGet, urls[1]+"/v1/members", "")
		var views []memberView
		if err := json.Unmarshal([]byte(body), &views); err != nil {
			t.Fatal(err)
		}
		alive := 0
		for _, v := range views {
			if v.Status == "alive" {
				alive++
			}
		}
		if alive == 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 1 sees %d alive members, want 3: %+v", alive, views)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterUnderLoad writes to a live cluster from concurrent plain
// HTTP clients, round-robin over the three nodes: no server errors, at
// least one accepted write, and a write on node 0 readable from node 2
// afterwards. A 429 is the admission control working;
// latency is bench/'s to measure (serve-write, serve-read).
func TestClusterUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket load test")
	}
	cl, err := StartCluster(3, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	urls := nodeURLs(cl)
	for _, u := range urls {
		waitOK(t, u+"/readyz")
	}

	// Workers run off the test goroutine, so they report with t.Errorf
	// rather than doReq's t.Fatal.
	const workers, perWorker = 4, 75
	client := &http.Client{Timeout: 2 * time.Second}
	var accepted, serverErr atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				url := fmt.Sprintf("%s/v1/data/load/k%d", urls[n%len(urls)], n%16)
				req, _ := http.NewRequest(http.MethodPut, url, strings.NewReader(fmt.Sprintf(`{"value": %d}`, n)))
				resp, err := client.Do(req)
				if err != nil {
					t.Errorf("PUT %s: %v", url, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode >= 500:
					serverErr.Add(1)
				case resp.StatusCode == http.StatusNoContent:
					accepted.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if serverErr.Load() != 0 {
		t.Fatalf("%d 5xx responses under load", serverErr.Load())
	}
	if accepted.Load() == 0 {
		t.Fatal("no accepted writes")
	}

	// Replication survived the load: a write on node 0 reaches node 2.
	if resp, _ := doReq(t, http.MethodPut, urls[0]+"/v1/data/load/after", `{"value": 1}`); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT on node 0 after the load = %d", resp.StatusCode)
	}
	waitOK(t, urls[2]+"/v1/data/load/after")
}

func TestStartClusterValidation(t *testing.T) {
	if _, err := StartCluster(0, ClusterOptions{}); err == nil {
		t.Fatal("size 0 accepted")
	}
	// A registry slice of the wrong length is a config error.
	if _, err := StartCluster(2, ClusterOptions{Registries: make([]*obs.Registry, 1)}); err == nil {
		t.Fatal("mismatched registries accepted")
	}
}

// TestHealthyClusterSuspectsNoOne runs a fault-free cluster for a few
// seconds: gossip must probe, and no node may suspect a healthy peer.
// Pings and acks without piggyback travel as envelopes, so a node whose
// sockets cannot carry them times out every such probe.
func TestHealthyClusterSuspectsNoOne(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()}
	cl, err := StartCluster(len(regs), ClusterOptions{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(3 * time.Second)
	for i, reg := range regs {
		count := func(kind string) uint64 {
			return reg.Counter("riot_events_total", "", "kind", kind).Value()
		}
		if n := count("gossip.probe"); n == 0 {
			t.Errorf("node %d: no gossip.probe events", i)
		}
		if n := count("gossip.suspect"); n != 0 {
			t.Errorf("node %d: %d gossip.suspect events in a fault-free cluster", i, n)
		}
	}
}

// TestServeClusterHealsPartition is a fault on the serving path: the
// injector partitions n2 from {n0, n1} past gossip's 800 ms suspicion
// timeout, both sides keep answering writes while n0 holds an incident
// open for n2, and after the heal every store holds every write with
// nothing pending, every member is alive on every node and no incident
// stays open.
func TestServeClusterHealsPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket fault test")
	}
	cl, err := StartCluster(3, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	urls := nodeURLs(cl)
	for _, u := range urls {
		waitOK(t, u+"/readyz")
	}
	allAlive := func() bool {
		for _, u := range urls {
			var views []memberView
			_, body := doReq(t, http.MethodGet, u+"/v1/members", "")
			if json.Unmarshal([]byte(body), &views) != nil || len(views) != len(urls) {
				return false
			}
			for _, v := range views {
				if v.Status != "alive" {
					return false
				}
			}
		}
		return true
	}
	incidents := func(u string) IncidentsView {
		var view IncidentsView
		_, body := doReq(t, http.MethodGet, u+"/v1/incidents", "")
		if err := json.Unmarshal([]byte(body), &view); err != nil {
			t.Fatalf("%s/v1/incidents: %v", u, err)
		}
		return view
	}
	waitFor(t, 5*time.Second, allAlive)

	inj := fault.NewInjector(cl.Net)
	inj.Inject(fault.Event{Kind: fault.KindPartitionStart, Groups: [][]simnet.NodeID{{"n0", "n1"}, {"n2"}}})
	waitFor(t, 5*time.Second, func() bool { // n0 opens an incident for n2
		for _, inc := range incidents(urls[0]).Incidents {
			if inc.Open && inc.Peer == "n2" {
				return true
			}
		}
		return false
	})
	keys := make([]string, len(cl.Nodes))
	for i, cn := range cl.Nodes {
		keys[i] = "part/" + string(cn.ID)
		if resp, _ := doReq(t, http.MethodPut, urls[i]+"/v1/data/"+keys[i], `{"value": 1}`); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT on %s during the partition = %d", cn.ID, resp.StatusCode)
		}
	}

	inj.Inject(fault.Event{Kind: fault.KindPartitionEnd})
	healed := time.Now()
	waitFor(t, 5*time.Second, func() bool { // every store holds every write, nothing pending
		for _, cn := range cl.Nodes {
			ok := true
			cn.Node.Do(func() {
				for _, k := range keys {
					if _, held := cn.Store.Get(k); !held {
						ok = false
					}
				}
				for _, peer := range cl.Nodes {
					if peer != cn && cn.Store.PendingFor(peer.ID) != 0 {
						ok = false
					}
				}
			})
			if !ok {
				return false
			}
		}
		return true
	})
	converged := time.Since(healed)
	waitFor(t, 15*time.Second, func() bool { // every member alive, no incident open
		if !allAlive() {
			return false
		}
		for _, u := range urls {
			if incidents(u).Open != 0 {
				return false
			}
		}
		return true
	})
	settled := time.Since(healed)
	var peers []string
	for i, u := range urls {
		for _, inc := range incidents(u).Incidents {
			peers = append(peers, fmt.Sprintf("%s→%s", cl.Nodes[i].ID, inc.Peer))
		}
	}
	t.Logf("after the heal: stores converged in %v, membership settled in %v; incidents %v", converged, settled, peers)

	// A write made after the heal reaches every node within the
	// write-triggered bound, from the side that was cut off.
	awaitEverywhere(t, cl, "healed", 3, putAcked(t, urls[2], "healed", 3))
}

// replicaBound is how long an accepted write may take to be readable
// on every node: ten write-triggered sync windows.
const replicaBound = 10 * syncWithin

// awaitEverywhere polls every node's store until each holds key at
// value, and fails the test once replicaBound has passed since the
// write was acknowledged at acked.
func awaitEverywhere(t *testing.T, cl *Cluster, key string, value float64, acked time.Time) {
	t.Helper()
	for {
		held := 0
		for _, cn := range cl.Nodes {
			cn.Node.Do(func() {
				if item, ok := cn.Store.Get(key); ok && item.Value == value {
					held++
				}
			})
		}
		if held == len(cl.Nodes) {
			return
		}
		if waited := time.Since(acked); waited > replicaBound {
			t.Fatalf("%s=%v held by %d of %d nodes %v after its PUT was acknowledged", key, value, held, len(cl.Nodes), waited)
		}
		time.Sleep(time.Millisecond)
	}
}

// putAcked writes key=value through url and returns when the write was
// acknowledged.
func putAcked(t *testing.T, url, key string, value float64) time.Time {
	t.Helper()
	if resp, _ := doReq(t, http.MethodPut, url+"/v1/data/"+key, fmt.Sprintf(`{"value": %v}`, value)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT %s on %s = %d", key, url, resp.StatusCode)
	}
	return time.Now()
}

// hourSyncCluster starts a ready 3-node cluster whose periodic sync
// turn never comes during a test, so only the write trigger replicates.
func hourSyncCluster(t *testing.T) *Cluster {
	t.Helper()
	cl, err := StartCluster(3, ClusterOptions{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for _, u := range nodeURLs(cl) {
		waitOK(t, u+"/readyz")
	}
	return cl
}

// TestWriteReplicatesWithinWindow: a PUT arms its store's sync turn, so
// the write reaches both peers within replicaBound although the
// periodic turn is an hour away.
func TestWriteReplicatesWithinWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	cl := hourSyncCluster(t)
	awaitEverywhere(t, cl, "fresh", 7, putAcked(t, cl.Nodes[0].URL, "fresh", 7))
}

// TestWriteTriggerSurvivesCrash: the turn a PUT armed falls due while
// its node is down and is swallowed. After recovery the next PUT must
// arm a turn of its own, which ships both writes.
func TestWriteTriggerSurvivesCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket fault test")
	}
	cl := hourSyncCluster(t)
	n0 := cl.Nodes[0]
	putAcked(t, n0.URL, "before-crash", 1)
	cl.Net.SetDown(n0.ID, true)
	time.Sleep(2 * syncWithin)
	cl.Net.SetDown(n0.ID, false)
	acked := putAcked(t, n0.URL, "after-crash", 2)
	awaitEverywhere(t, cl, "after-crash", 2, acked)
	awaitEverywhere(t, cl, "before-crash", 1, acked)
}

// TestWriteBurstCoalesces: 500 back-to-back PUTs share their sync
// turns. Each peer gets a few frames of many entries, not one frame per
// write, and every write arrives.
func TestWriteBurstCoalesces(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	const writes = 500
	cl := hourSyncCluster(t)
	n0 := cl.Nodes[0]
	h := n0.Server.Handler()
	for i := range writes {
		req := httptest.NewRequest(http.MethodPut, fmt.Sprintf("/v1/data/burst/%03d", i), strings.NewReader(`{"value": 1}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNoContent {
			t.Fatalf("PUT %d = %d", i, rec.Code)
		}
	}
	awaitEverywhere(t, cl, fmt.Sprintf("burst/%03d", writes-1), 1, time.Now())
	var sent dataflow.LinkStats
	n0.Node.Do(func() { sent = n0.Store.SyncStats() })
	perPeer := sent.FramesSent / uint64(len(cl.Nodes)-1)
	if perPeer >= 50 {
		t.Fatalf("%d writes took %d frames per peer, want fewer than 50", writes, perPeer)
	}
	for _, cn := range cl.Nodes[1:] {
		held := 0
		cn.Node.Do(func() { held = len(cn.Store.Keys()) })
		if held != writes {
			t.Fatalf("%s holds %d of %d burst keys", cn.ID, held, writes)
		}
	}
	t.Logf("%d writes, %d frames per peer", writes, perPeer)
}

// TestClusterReadyInOneRoundTrip: readiness is the seed's join ack, not
// a probe tick, so with probes two seconds apart every node of a fresh
// cluster answers /readyz 200 within 200 ms of StartCluster returning.
func TestClusterReadyInOneRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	cl, err := StartCluster(3, ClusterOptions{ProbeInterval: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	returned := time.Now()
	defer cl.Close()
	deadline := returned.Add(200 * time.Millisecond)
	for _, u := range nodeURLs(cl) {
		for {
			if resp, _ := doReq(t, http.MethodGet, u+"/readyz", ""); resp.StatusCode == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s/readyz not 200 %v after StartCluster returned", u, time.Since(returned))
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// startSeedCut starts a two-node cluster, n1 seeded through n0, whose
// nodes are partitioned before their protocols start: n1's join
// datagram is lost, and no answer from n0 can reach it.
func startSeedCut(t *testing.T, opts ClusterOptions) *Cluster {
	t.Helper()
	cl, err := newCluster(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	cl.Net.Partition([]simnet.NodeID{"n0"}, []simnet.NodeID{"n1"})
	if err := cl.start(); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestReadyzWaitsForSeed: a seeded node whose seed never answers is
// not ready — Start's optimistic alive for the seed is not contact — and
// its /readyz answers 503 for three probe intervals and more.
func TestReadyzWaitsForSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	const probe = 100 * time.Millisecond
	cl := startSeedCut(t, ClusterOptions{ProbeInterval: probe})
	for until := time.Now().Add(3*probe + probe/2); time.Now().Before(until); time.Sleep(10 * time.Millisecond) {
		if resp, _ := doReq(t, http.MethodGet, cl.Nodes[1].URL+"/readyz", ""); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("/readyz of a node whose seed never answered = %d, want 503", resp.StatusCode)
		}
	}
}

// TestLostJoinReadyThroughProbe: a node whose join was lost to a
// partition is not ready while the partition lasts, and turns ready
// through its probe of the seed within two probe intervals of the heal
// — before anti-entropy, ten probe intervals apart, would run.
func TestLostJoinReadyThroughProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket fault test")
	}
	const probe = 200 * time.Millisecond
	cl := startSeedCut(t, ClusterOptions{ProbeInterval: probe})
	joiner := cl.Nodes[1]
	// Heal between the third and fourth probe ticks: the seed is
	// suspect by then but not yet dead, so it is still a probe target,
	// and the next tick is half an interval away.
	for until := time.Now().Add(3*probe + probe/2); time.Now().Before(until); time.Sleep(5 * time.Millisecond) {
		if joiner.Ready() {
			t.Fatal("ready before the partition healed")
		}
	}
	cl.Net.HealPartition()
	healed := time.Now()
	for !joiner.Ready() {
		if time.Since(healed) > 2*probe {
			t.Fatalf("not ready %v after the heal", time.Since(healed))
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("ready %v after the heal", time.Since(healed))
}

// TestReadyzFallsAcrossCrash: a seeded node's recovery from a crash
// rejoins through its seed, so its /readyz answers 503 from the recovery
// until the seed answers, and 200 again within two probe intervals. The
// 503 is read by a recovery hook, which holds the node's loop, so the
// seed's answer cannot land before it.
func TestReadyzFallsAcrossCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket fault test")
	}
	const probe = 200 * time.Millisecond
	cl, err := StartCluster(3, ClusterOptions{ProbeInterval: probe})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	n1 := cl.Nodes[1]
	waitOK(t, n1.URL+"/readyz")
	status := make(chan int, 1)
	n1.Node.OnUp(func() {
		code := 0
		if resp, err := http.Get(n1.URL + "/readyz"); err == nil {
			code = resp.StatusCode
			resp.Body.Close()
		}
		status <- code
	})
	cl.Net.SetDown("n1", true)
	time.Sleep(probe)
	cl.Net.SetDown("n1", false)
	recovered := time.Now()
	select {
	case code := <-status:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("/readyz at recovery = %d, want 503", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the recovery hooks did not run")
	}
	for {
		if resp, _ := doReq(t, http.MethodGet, n1.URL+"/readyz", ""); resp.StatusCode == http.StatusOK {
			break
		}
		if time.Since(recovered) > 2*probe {
			t.Fatalf("/readyz not 200 %v after recovery", time.Since(recovered))
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("ready %v after recovery", time.Since(recovered))
}
