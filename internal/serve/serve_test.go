package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/realnet"
	"repro/internal/simnet"
	"repro/internal/space"
)

// testStack is a single-node protocol stack a server can front.
type testStack struct {
	node    *realnet.Node
	store   *dataflow.Store
	members *gossip.Protocol
}

func newTestStack(t testing.TB) *testStack {
	t.Helper()
	registerWire()
	node, err := realnet.NewNode("solo", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	world := space.NewMap()
	world.AddDomain(space.Domain{ID: "site", Trusted: true})
	world.Place("solo", space.Point{}, "site")
	mux := simnet.NewPortMux(node)
	members := gossip.New(mux.Port("gossip"), gossip.Config{
		ProbeInterval: 200 * time.Millisecond, ProbeTimeout: 100 * time.Millisecond,
		SuspicionTimeout: time.Second,
	})
	store := dataflow.NewStore(mux.Port("store"), world, dataflow.StoreConfig{
		SyncInterval: 200 * time.Millisecond,
	})
	return &testStack{node: node, store: store, members: members}
}

func (ts *testStack) start() {
	ts.node.Run()
	ts.node.Do(func() {
		ts.members.Start()
		ts.store.Start()
	})
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	ts := newTestStack(t)
	if cfg.Loop == nil {
		cfg.Loop = ts.node
	}
	cfg.Store = ts.store
	cfg.Members = ts.members
	cfg.Now = ts.node.Now
	srv := NewServer(cfg)
	ts.start()
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
		ts.node.Close()
	})
	return srv, hts
}

func doReq(t *testing.T, method, url, body string) (*http.Response, string) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestPutGetRoundTrip(t *testing.T) {
	_, hts := newTestServer(t, Config{})

	resp, body := doReq(t, http.MethodPut, hts.URL+"/v1/data/room1/temp",
		`{"value": 21.5, "topic": "climate", "ttl": "1m"}`)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d %s", resp.StatusCode, body)
	}

	resp, body = doReq(t, http.MethodGet, hts.URL+"/v1/data/room1/temp", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET = %d %s", resp.StatusCode, body)
	}
	var view itemView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.Key != "room1/temp" || view.Value != 21.5 {
		t.Fatalf("view = %+v", view)
	}
	if len(view.Lineage) == 0 || view.Lineage[0].Action != "produced" {
		t.Fatalf("lineage = %+v", view.Lineage)
	}

	resp, body = doReq(t, http.MethodGet, hts.URL+"/v1/data", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "room1/temp") {
		t.Fatalf("list = %d %s", resp.StatusCode, body)
	}
}

// TestGetUnencodableValueIs500: a value JSON cannot carry (a NaN put
// through the library API, or replicated from a peer that did) must
// answer 500 with an error body, not 200 with an empty one.
func TestGetUnencodableValueIs500(t *testing.T) {
	srv, hts := newTestServer(t, Config{})
	srv.loop.Do(func() {
		srv.store.Put(dataflow.Item{
			Key: "k", Value: math.NaN(),
			Label: dataflow.Label{Topic: "cli", Sensitivity: dataflow.Public, Origin: "site"},
		})
	})
	resp, body := doReq(t, http.MethodGet, hts.URL+"/v1/data/k", "")
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, `"error"`) {
		t.Fatalf("GET of a NaN item = %d %q, want 500 with an error body", resp.StatusCode, body)
	}
}

func TestGetMissingIs404(t *testing.T) {
	_, hts := newTestServer(t, Config{})
	resp, _ := doReq(t, http.MethodGet, hts.URL+"/v1/data/ghost", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing = %d", resp.StatusCode)
	}
}

// badPutBodies are PUT payloads the server must answer with 400.
var badPutBodies = []string{
	``,                             // empty
	`{"value": {"nested": 1}}`,     // non-scalar value
	`{"value": [1,2]}`,             // non-scalar value
	`{"value": null}`,              // null value
	`{"value": 1, "ttl": "bogus"}`, // bad ttl
	`{"value": 1, "sensitivity": "topsecret"}`, // unknown sensitivity
}

func TestPutRejectsBadBodies(t *testing.T) {
	_, hts := newTestServer(t, Config{})
	for _, body := range badPutBodies {
		resp, got := doReq(t, http.MethodPut, hts.URL+"/v1/data/k", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT %q = %d %s, want 400", body, resp.StatusCode, got)
		}
	}
}

func TestMembersEndpoint(t *testing.T) {
	_, hts := newTestServer(t, Config{})
	resp, body := doReq(t, http.MethodGet, hts.URL+"/v1/members", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("members = %d", resp.StatusCode)
	}
	var views []memberView
	if err := json.Unmarshal([]byte(body), &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].ID != "solo" || views[0].Status != "alive" {
		t.Fatalf("members = %+v", views)
	}
}

func TestIncidentsEndpointEmpty(t *testing.T) {
	_, hts := newTestServer(t, Config{})
	resp, body := doReq(t, http.MethodGet, hts.URL+"/v1/incidents", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("incidents = %d", resp.StatusCode)
	}
	var view IncidentsView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.Open != 0 || view.Total != 0 || len(view.Incidents) != 0 {
		t.Fatalf("incidents = %+v", view)
	}
}

// gatedLoop blocks every Do until the gate closes — the test handle
// for holding a request in flight. A non-nil entered receives once per
// Do, as it starts waiting.
type gatedLoop struct {
	inner   Loop
	gate    chan struct{}
	entered chan struct{}
}

func (g gatedLoop) Do(fn func()) bool {
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	<-g.gate
	return g.inner.Do(fn)
}

func TestAdmissionControlSheds(t *testing.T) {
	ts := newTestStack(t)
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	srv := NewServer(Config{
		Loop:     gatedLoop{inner: ts.node, gate: gate},
		Store:    ts.store,
		Members:  ts.members,
		Registry: reg,
		Now:      ts.node.Now,
	})
	// One admission slot stands in for a full server.
	srv.inflight = make(chan struct{}, 1)
	ts.start()
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
		ts.node.Close()
	})

	// First request occupies the single admission slot, blocked at the
	// gate inside the handler.
	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(hts.URL + "/v1/data/held")
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitFor(t, time.Second, func() bool { return srv.inflightG.Value() == 1 })

	// The queue is full: the next request must be shed, not queued.
	resp, _ := doReq(t, http.MethodGet, hts.URL+"/v1/data/extra", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q", ra)
	}
	if srv.shedTotal.Value() != 1 {
		t.Fatalf("shed counter = %d", srv.shedTotal.Value())
	}

	close(gate)
	if code := <-first; code != http.StatusNotFound {
		t.Fatalf("held request = %d, want 404", code)
	}
	// Slot released: traffic flows again.
	resp, _ = doReq(t, http.MethodGet, hts.URL+"/v1/data/after", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-release request = %d, want 404", resp.StatusCode)
	}
}

func TestStreamDeliversWritesAndDrains(t *testing.T) {
	srv, hts := newTestServer(t, Config{})

	resp, err := http.Get(hts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d", resp.StatusCode)
	}
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				lines <- strings.TrimPrefix(line, "data: ")
			}
		}
		close(lines)
	}()

	if resp, body := doReq(t, http.MethodPut, hts.URL+"/v1/data/streamed", `{"value": 7}`); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d %s", resp.StatusCode, body)
	}

	select {
	case line := <-lines:
		var ev StreamEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type != "data" || ev.Key != "streamed" || ev.From != "local" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no stream event within 2s")
	}

	// Drain: the hub closes the subscription, so the body ends.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case _, open := <-lines:
		if open {
			// Events published before the drain may still be buffered;
			// drain until close.
			for range lines {
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stream did not end on drain")
	}
}

func TestWritesRefusedWhileDraining(t *testing.T) {
	srv, hts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if !srv.draining.Load() {
		t.Fatal("server not draining after Shutdown")
	}
	resp, _ := doReq(t, http.MethodPut, hts.URL+"/v1/data/late", `{"value": 1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT while draining = %d, want 503", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, hts.URL+"/readyz", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestPutAfterLoopClosedIs503: a server that is not draining but whose
// node has closed refuses writes too, because its Loop.Do reports the
// loop gone.
func TestPutAfterLoopClosedIs503(t *testing.T) {
	srv, hts := newTestServer(t, Config{})
	srv.loop.(*realnet.Node).Close()
	resp, _ := doReq(t, http.MethodPut, hts.URL+"/v1/data/late", `{"value": 1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT after the node closed = %d, want 503", resp.StatusCode)
	}
}

// TestConcurrentPutsAllReadBack: concurrent writers each get 204, and
// every acknowledged key then reads back its own value.
func TestConcurrentPutsAllReadBack(t *testing.T) {
	_, hts := newTestServer(t, Config{})
	const writers = 16
	codes := make(chan int, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			req, _ := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v1/data/w/%d", hts.URL, i),
				strings.NewReader(fmt.Sprintf(`{"value": %d}`, i)))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	for i := 0; i < writers; i++ {
		if code := <-codes; code != http.StatusNoContent {
			t.Fatalf("concurrent PUT = %d, want 204", code)
		}
	}
	for i := 0; i < writers; i++ {
		resp, body := doReq(t, http.MethodGet, fmt.Sprintf("%s/v1/data/w/%d", hts.URL, i), "")
		var view itemView
		if resp.StatusCode != http.StatusOK || json.Unmarshal([]byte(body), &view) != nil || view.Value != float64(i) {
			t.Fatalf("GET w/%d = %d %s, want value %d", i, resp.StatusCode, body, i)
		}
	}
}

// TestShutdownFinishesAcceptedWrite holds a PUT inside Loop.Do while
// Shutdown starts: the write still answers 204 and lands in the store,
// and Shutdown returns only after it. The server runs on a real
// listener so that Shutdown is what waits for the handler.
func TestShutdownFinishesAcceptedWrite(t *testing.T) {
	ts := newTestStack(t)
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	srv := NewServer(Config{
		Loop:    gatedLoop{inner: ts.node, gate: gate, entered: entered},
		Store:   ts.store,
		Members: ts.members,
		Now:     ts.node.Now,
	})
	ts.start()
	t.Cleanup(ts.node.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()

	put := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPut, "http://"+ln.Addr().String()+"/v1/data/held", strings.NewReader(`{"value": 3}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			put <- -1
			return
		}
		resp.Body.Close()
		put <- resp.StatusCode
	}()
	<-entered // the PUT is inside Loop.Do, past the drain check

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	waitFor(t, time.Second, srv.draining.Load)
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) while a write was held in the loop", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	var item dataflow.Item
	var ok bool
	ts.node.Do(func() { item, ok = ts.store.Get("held") })
	if !ok || item.Value != 3.0 {
		t.Fatalf("store after Shutdown holds %+v (present %v), want value 3", item, ok)
	}
	if code := <-put; code != http.StatusNoContent {
		t.Fatalf("held PUT = %d, want 204", code)
	}
}

func TestReadyzTracksConfigReady(t *testing.T) {
	ready := false
	_, hts := newTestServer(t, Config{Ready: func() bool { return ready }})
	resp, _ := doReq(t, http.MethodGet, hts.URL+"/readyz", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz unjoined = %d, want 503", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, hts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
	ready = true
	resp, _ = doReq(t, http.MethodGet, hts.URL+"/readyz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz joined = %d, want 200", resp.StatusCode)
	}
}

func TestServeMetricsExposed(t *testing.T) {
	reg := obs.NewRegistry()
	_, hts := newTestServer(t, Config{Registry: reg})
	if resp, body := doReq(t, http.MethodPut, hts.URL+"/v1/data/m", `{"value": 1}`); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d %s", resp.StatusCode, body)
	}
	doReq(t, http.MethodGet, hts.URL+"/v1/data/m", "")

	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`riot_serve_requests_total{code="204",route="put_data"} 1`,
		`riot_serve_requests_total{code="200",route="get_data"} 1`,
		`riot_serve_request_seconds_count{route="put_data"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestCountAllocatesNothing: counting a request against an existing
// series allocates nothing, status text included. The node never runs,
// so nothing else allocates while the count is measured.
func TestCountAllocatesNothing(t *testing.T) {
	ts := newTestStack(t)
	defer ts.node.Close()
	srv := NewServer(Config{Loop: ts.node, Store: ts.store, Members: ts.members, Registry: obs.NewRegistry(), Now: ts.node.Now})
	srv.count("put_data", http.StatusNoContent)
	if n := testing.AllocsPerRun(100, func() { srv.count("put_data", http.StatusNoContent) }); n != 0 {
		t.Fatalf("count: %v allocations, want 0", n)
	}
	if codeText(204) != "204" || codeText(1234) != "1234" || codeText(-1) != "-1" {
		t.Fatal("codeText is not the decimal code")
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIncidentLog exercises the open/close bookkeeping directly.
func TestIncidentLog(t *testing.T) {
	now := 10 * time.Second
	log := newIncidentLog(func() time.Duration { return now }, obs.NewRegistry())

	log.observe(gossip.Member{ID: "b", Status: gossip.StatusDead})
	now = 12 * time.Second
	log.observe(gossip.Member{ID: "b", Status: gossip.StatusDead}) // duplicate: no-op
	view := log.snapshot()
	if view.Open != 1 || view.Total != 1 || !view.Incidents[0].Open {
		t.Fatalf("after down: %+v", view)
	}

	log.observe(gossip.Member{ID: "b", Status: gossip.StatusAlive})
	view = log.snapshot()
	if view.Open != 0 || view.Total != 1 {
		t.Fatalf("after recovery: %+v", view)
	}
	inc := view.Incidents[0]
	if inc.Peer != "b" || inc.RecoveryMs != 2000 || inc.Open {
		t.Fatalf("closed incident = %+v", inc)
	}

	// Alive with no open incident is a no-op.
	log.observe(gossip.Member{ID: "c", Status: gossip.StatusAlive})
	if v := log.snapshot(); v.Total != 1 {
		t.Fatalf("spurious incident: %+v", v)
	}
}

// TestIncidentLogRingBound checks the closed-history bound holds.
func TestIncidentLogRingBound(t *testing.T) {
	var now time.Duration
	log := newIncidentLog(func() time.Duration { return now }, obs.NewRegistry())
	for i := 0; i < maxClosedIncidents+10; i++ {
		id := simnet.NodeID(fmt.Sprintf("p%d", i))
		log.observe(gossip.Member{ID: id, Status: gossip.StatusDead})
		now += time.Second
		log.observe(gossip.Member{ID: id, Status: gossip.StatusAlive})
	}
	view := log.snapshot()
	if len(view.Incidents) != maxClosedIncidents {
		t.Fatalf("retained %d closed incidents, want %d", len(view.Incidents), maxClosedIncidents)
	}
	if view.Total != maxClosedIncidents+10 {
		t.Fatalf("total = %d", view.Total)
	}
}
