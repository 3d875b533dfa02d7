package main

import (
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestParseArgs(t *testing.T) {
	cfg, err := parseArgs([]string{
		"-id", "a", "-bind", "127.0.0.1:7001",
		"-peers", "b=127.0.0.1:7002,c=127.0.0.1:7003",
		"-seeds", "b",
		"-put", "k1=1.5,k2=2",
		"-duration", "3s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.id != "a" || len(cfg.peers) != 2 || len(cfg.seeds) != 1 || cfg.seeds[0] != "b" {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.puts["k1"] != 1.5 || cfg.puts["k2"] != 2 {
		t.Fatalf("puts = %v", cfg.puts)
	}
	if cfg.duration != 3*time.Second {
		t.Fatalf("duration = %v", cfg.duration)
	}
}

func TestParseArgsErrors(t *testing.T) {
	bad := [][]string{
		{},                                   // missing id
		{"-id", "a", "-peers", "noequals"},   // bad peer
		{"-id", "a", "-peers", "=addr"},      // empty peer id
		{"-id", "a", "-seeds", "ghost"},      // seed not in peers
		{"-id", "a", "-put", "keyonly"},      // bad put
		{"-id", "a", "-put", "k=notanumber"}, // bad value
		{"-id", "a", "-put", "k=NaN"},        // not finite
		{"-id", "a", "-put", "k=Inf"},        // not finite
		{"-id", "a", "-put", "k=-inf"},       // not finite
		{"-id", "a", "-notaflag"},            // bad flag
		{"-id", "a", "put", "k=1"},           // stray word: the flags after it would be dropped
	}
	for _, args := range bad {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunSingleNodeBriefly(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-id", "solo", "-bind", "127.0.0.1:0",
		"-put", "x=1", "-duration", "250ms", "-interval", "100ms"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "riotnode solo listening") {
		t.Fatalf("output = %q", s)
	}
	if !strings.Contains(s, "solo=alive") || !strings.Contains(s, "x=1") {
		t.Fatalf("status output missing member/data: %q", s)
	}
}

func TestRunTwoNodesConverge(t *testing.T) {
	// Reserve two distinct loopback ports by binding ephemeral nodes
	// is racy; instead use high fixed ports unlikely to collide and
	// retry once on failure.
	addrA, addrB := "127.0.0.1:39461", "127.0.0.1:39462"
	outA := &syncWriter{}
	outB := &syncWriter{}
	errc := make(chan error, 2)
	go func() {
		errc <- run([]string{"-id", "a", "-bind", addrA,
			"-peers", "b=" + addrB, "-duration", "2s", "-interval", "200ms"}, outA)
	}()
	go func() {
		errc <- run([]string{"-id", "b", "-bind", addrB,
			"-peers", "a=" + addrA, "-seeds", "a",
			"-put", "shared/key=7", "-duration", "2s", "-interval", "200ms"}, outB)
	}()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Skipf("port busy or bind failed: %v", err)
		}
	}
	// Node a must have learned both the member and the data.
	s := outA.String()
	if !strings.Contains(s, "b=alive") {
		t.Fatalf("node a never saw b alive:\n%s", s)
	}
	if !strings.Contains(s, "shared/key=7") {
		t.Fatalf("node a never received the shared datum:\n%s", s)
	}
}

// TestMetricsEndpoint starts a node with -metrics-addr, scrapes the
// printed ephemeral address while the node runs, and checks both the
// Prometheus exposition and the health probe.
func TestMetricsEndpoint(t *testing.T) {
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-id", "scraped", "-bind", "127.0.0.1:0",
			"-metrics-addr", "127.0.0.1:0", "-put", "k=3",
			"-duration", "3s", "-interval", "100ms"}, out)
	}()

	var base string
	deadline := time.Now().Add(2 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("metrics address never printed; output: %q", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "metrics: ") {
				base = strings.TrimSuffix(strings.TrimPrefix(line, "metrics: "), "/metrics")
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Give the gauges one status interval to be set.
	time.Sleep(300 * time.Millisecond)
	body := httpGet(t, base+"/metrics")
	for _, want := range []string{
		"# TYPE riot_members_alive gauge",
		"riot_members_alive 1",
		"riot_store_keys 1",
		"riot_incidents_total 0",
		"riot_incidents_open 0",
		"riot_incident_recovery_seconds_count 0",
		"riot_realnet_dropped_total 0",
		"riot_realnet_delayed_total 0",
		"riot_realnet_shaped_total 0",
		"riot_realnet_malformed_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if health := httpGet(t, base+"/healthz"); health != "ok\n" {
		t.Fatalf("/healthz = %q", health)
	}
	// A seedless node bootstraps its own cluster: ready immediately.
	if ready := httpGet(t, base+"/readyz"); ready != "ok\n" {
		t.Fatalf("/readyz = %q", ready)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestReadinessRequiresJoin starts a node whose only seed does not
// exist: the node is alive (healthz ok) but must never become ready.
func TestReadinessRequiresJoin(t *testing.T) {
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-id", "lonely", "-bind", "127.0.0.1:0",
			"-peers", "ghost=127.0.0.1:1", "-seeds", "ghost",
			"-metrics-addr", "127.0.0.1:0",
			"-duration", "1s", "-interval", "100ms"}, out)
	}()

	var base string
	deadline := time.Now().Add(2 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("metrics address never printed; output: %q", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "metrics: ") {
				base = strings.TrimSuffix(strings.TrimPrefix(line, "metrics: "), "/metrics")
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before join = %d, want 503", resp.StatusCode)
	}
	if health := httpGet(t, base+"/healthz"); health != "ok\n" {
		t.Fatalf("/healthz while unready = %q", health)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShortDurationDoesNotOverrun: a -duration shorter than the print
// -interval must still end the run on time (the deadline is a timer in
// the select, not a check after a full-interval sleep).
func TestShortDurationDoesNotOverrun(t *testing.T) {
	start := time.Now()
	var out strings.Builder
	err := run([]string{"-id", "brief", "-bind", "127.0.0.1:0",
		"-duration", "200ms", "-interval", "10s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("200ms run with 10s interval took %v", elapsed)
	}
}

// TestServeAddrServesData starts a node with the serve front door and
// exercises a write/read round trip plus the members view over HTTP.
func TestServeAddrServesData(t *testing.T) {
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-id", "api", "-bind", "127.0.0.1:0",
			"-serve-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-duration", "3s", "-interval", "100ms"}, out)
	}()
	base := waitForLine(t, out, "serve: ")

	req, _ := http.NewRequest(http.MethodPut, base+"/v1/data/room1/temp",
		strings.NewReader(`{"value": 21.5}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	body := httpGet(t, base+"/v1/data/room1/temp")
	if !strings.Contains(body, "21.5") {
		t.Fatalf("GET body = %q", body)
	}
	members := httpGet(t, base+"/v1/members")
	if !strings.Contains(members, `"api"`) || !strings.Contains(members, "alive") {
		t.Fatalf("members body = %q", members)
	}
	// The serve request metrics land on the shared node registry.
	metrics := waitForLine(t, out, "metrics: ")
	if m := httpGet(t, strings.TrimSuffix(metrics, "/metrics")+"/metrics"); !strings.Contains(m, "riot_serve_requests_total") {
		t.Fatalf("node metrics missing serve family:\n%s", m)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSignalShutdownDrains delivers SIGTERM to the process while a
// node with an open-ended duration runs: run must return promptly and
// report the drain.
func TestSignalShutdownDrains(t *testing.T) {
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-id", "sig", "-bind", "127.0.0.1:0",
			"-serve-addr", "127.0.0.1:0", "-interval", "100ms"}, out)
	}()
	waitForLine(t, out, "serve: ")

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	if s := out.String(); !strings.Contains(s, "draining") {
		t.Fatalf("no drain message in output: %q", s)
	}
}

// TestReadyzFlipsAfterJoin: a two-node cluster where the joining
// node's /readyz starts 503 and flips to 200 once the seed answers it —
// its join ack, or, when the join went out before the seed was
// listening, the ack to its first probe.
func TestReadyzFlipsAfterJoin(t *testing.T) {
	addrA, addrB := "127.0.0.1:39471", "127.0.0.1:39472"
	outA, outB := &syncWriter{}, &syncWriter{}
	errc := make(chan error, 2)
	go func() {
		errc <- run([]string{"-id", "a", "-bind", addrA,
			"-peers", "b=" + addrB, "-duration", "4s", "-interval", "200ms"}, outA)
	}()
	go func() {
		errc <- run([]string{"-id", "b", "-bind", addrB,
			"-peers", "a=" + addrA, "-seeds", "a",
			"-metrics-addr", "127.0.0.1:0",
			"-duration", "4s", "-interval", "200ms"}, outB)
	}()
	base := strings.TrimSuffix(waitForLine(t, outB, "metrics: "), "/metrics")

	// Poll until ready; the flip must happen within the run.
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node b never became ready")
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Skipf("port busy or bind failed: %v", err)
		}
	}
}

// waitForLine polls out until a line with the given prefix appears and
// returns the rest of that line.
func waitForLine(t *testing.T, out *syncWriter, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return rest
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("line %q never printed; output: %q", prefix, out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// syncWriter is a strings.Builder safe for cross-goroutine use.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}
