package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHandlerServesMetricsAndHealth(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("riot_events_total", "events", "kind", "test").Inc()
	healthy := true
	srv := httptest.NewServer(Handler(reg, func() bool { return healthy }, nil))
	defer srv.Close()

	code, body, hdr := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(body, `riot_events_total{kind="test"} 1`) {
		t.Fatalf("metrics body:\n%s", body)
	}

	code, body, _ = get(t, srv, "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	healthy = false
	code, _, _ = get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy /healthz status = %d", code)
	}
}

func TestHandlerNilHealthCheck(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), nil, nil))
	defer srv.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		code, body, _ := get(t, srv, path)
		if code != http.StatusOK || body != "ok\n" {
			t.Fatalf("%s = %d %q", path, code, body)
		}
	}
}

// TestHandlerProbeMatrix pins the full healthy × ready contract: the
// liveness and readiness probes are independent axes, so an orchestra-
// tor can distinguish "restart me" (healthz down) from "stop routing
// to me" (readyz down).
func TestHandlerProbeMatrix(t *testing.T) {
	var healthy, ready bool
	srv := httptest.NewServer(Handler(NewRegistry(),
		func() bool { return healthy }, func() bool { return ready }))
	defer srv.Close()

	cases := []struct {
		healthy, ready         bool
		wantHealth, wantReadyz int
	}{
		{false, false, http.StatusServiceUnavailable, http.StatusServiceUnavailable},
		{false, true, http.StatusServiceUnavailable, http.StatusOK},
		{true, false, http.StatusOK, http.StatusServiceUnavailable},
		{true, true, http.StatusOK, http.StatusOK},
	}
	for _, c := range cases {
		healthy, ready = c.healthy, c.ready
		if code, _, _ := get(t, srv, "/healthz"); code != c.wantHealth {
			t.Errorf("healthy=%v ready=%v: /healthz = %d, want %d", c.healthy, c.ready, code, c.wantHealth)
		}
		if code, _, _ := get(t, srv, "/readyz"); code != c.wantReadyz {
			t.Errorf("healthy=%v ready=%v: /readyz = %d, want %d", c.healthy, c.ready, code, c.wantReadyz)
		}
	}
}

// TestHandlerReadyzFlipsOnProbeEvent wires readiness the way riotnode
// does — an atomic flipped by the first acked gossip probe on the bus
// — and checks /readyz turns 200 exactly when the event lands.
func TestHandlerReadyzFlipsOnProbeEvent(t *testing.T) {
	bus := NewBus(nil)
	var joined atomic.Bool
	sub := bus.SubscribeFunc(func(ev Event) {
		if ev.Kind == "gossip.probe" {
			joined.Store(true)
		}
	})
	defer sub.Close()

	srv := httptest.NewServer(Handler(NewRegistry(), nil, joined.Load))
	defer srv.Close()

	if code, _, _ := get(t, srv, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before probe = %d, want 503", code)
	}
	bus.Emit("gossip.suspect", "n1", 0, 0, "unrelated event")
	if code, _, _ := get(t, srv, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after unrelated event = %d, want 503", code)
	}
	bus.Emit("gossip.probe", "n1", 0, 0, "ack from peer")
	if code, _, _ := get(t, srv, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after probe ack = %d, want 200", code)
	}
}

func TestHandlerReadiness(t *testing.T) {
	ready := false
	srv := httptest.NewServer(Handler(NewRegistry(), nil, func() bool { return ready }))
	defer srv.Close()

	// Not ready yet must not affect liveness: the node is up, just not
	// serving traffic.
	code, _, _ := get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unready /readyz status = %d", code)
	}
	code, _, _ = get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz while unready = %d", code)
	}

	ready = true
	code, body, _ := get(t, srv, "/readyz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("ready /readyz = %d %q", code, body)
	}
}
