// Package serve is the production front door: an HTTP JSON API plus a
// server-sent-event subscription stream over a node's governed
// dataflow.Store and gossip membership. It is the first subsystem
// where the resilience stack meets real client traffic, so it is built
// service-shaped rather than demo-shaped:
//
//   - every store and membership access, read or write, is one turn of
//     the node's event loop (the Loop interface realnet.Node
//     satisfies), keeping the single-threaded protocol contract intact;
//   - admission control bounds the in-flight request count and sheds
//     the excess with 429 + Retry-After instead of queueing without
//     bound — resilience measured at the service boundary means the
//     node must degrade by refusing load, not by falling over;
//   - per-endpoint latency and outcome metrics land on the shared
//     obs.Registry, so the serving path is observable with the same
//     scrape the simulator metrics use;
//   - Shutdown drains: new writes are refused with 503, the stream hub
//     closes its subscribers, and the HTTP listener stops accepting and
//     waits for in-flight handlers, so every write already admitted is
//     applied before the node goes away.
//
// API surface:
//
//	PUT  /v1/data/{key}   write one item   {"value": 21.5, "topic": "...", "sensitivity": "public", "ttl": "30s"}
//	GET  /v1/data/{key}   read one item    value + produced-at + staleness + lineage
//	GET  /v1/data         list live keys
//	GET  /v1/members      gossip membership view
//	GET  /v1/incidents    peer-down incidents (open and recent closed)
//	GET  /v1/stream       SSE stream of applied items and membership transitions
//	GET  /healthz         liveness (process up, not draining is not required)
//	GET  /readyz          readiness (joined cluster and not draining)
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Loop serializes access to protocol state owned by a node's event
// loop. realnet.Node satisfies it; Do runs fn on the loop and reports
// false if the node shut down before fn could run.
type Loop interface {
	Do(fn func()) bool
}

// Config parameterizes NewServer. Loop, Store and Members are
// required; everything else has serviceable defaults.
type Config struct {
	// Loop is the event-loop funnel of the node hosting the store and
	// membership (realnet.Node). Required.
	Loop Loop
	// Store is the governed data store reads and writes go to. Required.
	Store *dataflow.Store
	// Members is the gossip membership the members/incidents endpoints
	// and the stream report on. Required.
	Members *gossip.Protocol
	// Registry receives serving-path metrics; nil uses a private one.
	Registry *obs.Registry
	// Ready reports whether the node has joined its cluster; nil means
	// always ready. Draining always reads as not ready.
	Ready func() bool
	// Now is the clock incidents and items are stamped with; nil uses
	// wall time since NewServer.
	Now func() time.Duration
}

// maxInFlight bounds concurrently admitted requests; beyond it the
// server sheds with 429.
const maxInFlight = 256

func (cfg Config) withDefaults() Config {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Now == nil {
		start := time.Now()
		cfg.Now = func() time.Duration { return time.Since(start) }
	}
	return cfg
}

// Server is one node's HTTP front door. Construct with NewServer
// before the node's event loop starts (it registers store and
// membership callbacks), then either Serve a listener or mount
// Handler in a test server. Shutdown drains.
type Server struct {
	cfg     Config
	loop    Loop
	store   *dataflow.Store
	members *gossip.Protocol
	reg     *obs.Registry

	mux       *http.ServeMux
	httpSrv   *http.Server
	hub       *hub
	incidents *incidentLog

	inflight chan struct{}
	draining atomic.Bool
	downOnce sync.Once

	reqSeconds map[string]*obs.Histogram
	shedTotal  *obs.Counter
	inflightG  *obs.Gauge
}

// routes instrumented with admission control and latency metrics.
var routeNames = []string{"put_data", "get_data", "list_data", "members", "incidents", "stream"}

// NewServer wires a server over the node's store and membership. Call
// before the node starts running: the constructor registers OnApply
// and OnChange callbacks, which must not race the event loop.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		loop:     cfg.Loop,
		store:    cfg.Store,
		members:  cfg.Members,
		reg:      cfg.Registry,
		mux:      http.NewServeMux(),
		inflight: make(chan struct{}, maxInFlight),
	}
	s.reqSeconds = make(map[string]*obs.Histogram, len(routeNames))
	for _, r := range routeNames {
		s.reqSeconds[r] = s.reg.Histogram("riot_serve_request_seconds",
			"serving-path request latency by route", obs.DefBuckets, "route", r)
	}
	s.shedTotal = s.reg.Counter("riot_serve_shed_total", "requests shed by admission control")
	s.inflightG = s.reg.Gauge("riot_serve_inflight", "requests currently admitted")

	s.hub = newHub(
		s.reg.Gauge("riot_serve_stream_subscribers", "live stream subscribers"),
		s.reg.Counter("riot_serve_stream_dropped_total", "stream events dropped on slow subscribers"))
	s.incidents = newIncidentLog(cfg.Now, s.reg)

	// Remote applies and membership transitions feed the stream; the
	// callbacks run on the event loop, the hub is lock-protected.
	s.store.OnApply(func(item dataflow.Item, from simnet.NodeID) {
		s.hub.publish(StreamEvent{Type: "data", Key: item.Key, Value: item.Value, From: string(from)})
	})
	s.members.OnChange(func(m gossip.Member) {
		s.hub.publish(StreamEvent{Type: "member", Member: string(m.ID), Status: m.Status.String()})
		s.incidents.observe(m)
	})

	s.routes()
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Handler returns the server's HTTP handler (for httptest mounting).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. Like
// http.Server.Serve it returns http.ErrServerClosed after a graceful
// shutdown.
func (s *Server) Serve(ln net.Listener) error { return s.httpSrv.Serve(ln) }

// Shutdown drains the server in three steps: readiness and new writes
// flip to 503, stream subscribers are closed (so their handlers
// finish), and the HTTP server stops accepting and waits up to ctx's
// deadline for in-flight requests — each inside its own Loop.Do, so a
// write admitted before the drain is applied before Shutdown returns.
// Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.downOnce.Do(func() {
		s.draining.Store(true)
		s.hub.close()
		err = s.httpSrv.Shutdown(ctx)
	})
	return err
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() || (s.cfg.Ready != nil && !s.cfg.Ready()) {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	s.mux.HandleFunc("PUT /v1/data/{key...}", s.instrument("put_data", s.handlePut))
	s.mux.HandleFunc("GET /v1/data/{key...}", s.instrument("get_data", s.handleGet))
	s.mux.HandleFunc("GET /v1/data", s.instrument("list_data", s.handleList))
	s.mux.HandleFunc("GET /v1/members", s.instrument("members", s.handleMembers))
	s.mux.HandleFunc("GET /v1/incidents", s.instrument("incidents", s.handleIncidents))
	// The stream is long-lived, so it must not hold an admission slot
	// for its whole life; the hub bounds subscribers itself.
	s.mux.HandleFunc("GET /v1/stream", s.handleStream)
}

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with admission control and per-route
// latency/outcome metrics. A full in-flight queue sheds the request
// with 429 and a Retry-After hint instead of queueing it — bounded
// load is the serving-path resilience mechanism.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reqSeconds[route]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		select {
		case s.inflight <- struct{}{}:
		default:
			s.shedTotal.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			s.count(route, http.StatusTooManyRequests)
			return
		}
		s.inflightG.Add(1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		<-s.inflight
		s.inflightG.Add(-1)
		hist.Observe(time.Since(start).Seconds())
		s.count(route, rec.code)
	}
}

func (s *Server) count(route string, code int) {
	s.reg.Counter("riot_serve_requests_total", "serving-path requests by route and status",
		"route", route, "code", codeText(code)).Inc()
}

// codeTexts holds the decimal text of every code below 600, which
// covers every HTTP status class, so that counting a response
// allocates no string.
var codeTexts = func() (t [600]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

// codeText is code in decimal.
func codeText(code int) string {
	if code >= 0 && code < len(codeTexts) {
		return codeTexts[code]
	}
	return strconv.Itoa(code)
}

// putBody is the PUT /v1/data/{key} request payload.
type putBody struct {
	Value       any    `json:"value"`
	Topic       string `json:"topic"`
	Sensitivity string `json:"sensitivity"`
	TTL         string `json:"ttl"`
}

// syncWithin bounds how long an accepted write waits in the store's
// delta buffer before a sync turn ships it to the peers. Writes inside
// one window share the turn. It is a budget of the serving path, not
// an option: the store's periodic turn stays as anti-entropy.
const syncWithin = 25 * time.Millisecond

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, "empty key")
		return
	}
	var body putBody
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "bad body: "+err.Error())
		return
	}
	// Values must cross realnet's wire between stores, where an
	// interface field carries a built-in scalar or a registered type, so
	// only scalar JSON values are accepted (numbers arrive as float64).
	switch body.Value.(type) {
	case float64, string, bool:
	default:
		writeError(w, http.StatusBadRequest, "value must be a number, string, or boolean")
		return
	}
	sens, err := parseSensitivity(body.Sensitivity)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var ttl time.Duration
	if body.TTL != "" {
		ttl, err = time.ParseDuration(body.TTL)
		if err != nil || ttl < 0 {
			writeError(w, http.StatusBadRequest, "bad ttl")
			return
		}
	}
	topic := body.Topic
	if topic == "" {
		topic = "api"
	}
	item := dataflow.Item{
		Key:   key,
		Value: body.Value,
		Label: dataflow.Label{Topic: topic, Sensitivity: sens, Origin: site, TTL: ttl},
	}
	// A draining server refuses here: a handler mounted outside Serve
	// still reaches a live loop after Shutdown.
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if !s.loop.Do(func() {
		s.store.Put(item)
		s.store.SyncWithin(syncWithin)
		s.hub.publish(StreamEvent{Type: "data", Key: item.Key, Value: item.Value, From: "local"})
	}) {
		writeError(w, http.StatusServiceUnavailable, "node shut down")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// hopView is one lineage step in a read response.
type hopView struct {
	Node   string `json:"node"`
	Action string `json:"action"`
	AtMs   int64  `json:"at_ms"`
}

// itemView is the GET /v1/data/{key} response.
type itemView struct {
	Key          string    `json:"key"`
	Value        any       `json:"value"`
	ProducedAtMs int64     `json:"produced_at_ms"`
	StalenessMs  int64     `json:"staleness_ms"`
	Lineage      []hopView `json:"lineage,omitempty"`
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var (
		item  dataflow.Item
		ok    bool
		stale time.Duration
	)
	if !s.loop.Do(func() {
		item, ok = s.store.Get(key)
		if ok {
			stale, _ = s.store.Staleness(key)
		}
	}) {
		writeError(w, http.StatusServiceUnavailable, "node shut down")
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "not found")
		return
	}
	view := itemView{
		Key:          key,
		Value:        item.Value,
		ProducedAtMs: item.ProducedAt.Milliseconds(),
		StalenessMs:  stale.Milliseconds(),
	}
	for _, h := range item.Lineage {
		view.Lineage = append(view.Lineage, hopView{Node: h.Node, Action: h.Action, AtMs: h.At.Milliseconds()})
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	var keys []string
	if !s.loop.Do(func() { keys = s.store.Keys() }) {
		writeError(w, http.StatusServiceUnavailable, "node shut down")
		return
	}
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"keys": keys})
}

// memberView is one row of the GET /v1/members response.
type memberView struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Incarnation uint64 `json:"incarnation"`
}

func (s *Server) handleMembers(w http.ResponseWriter, _ *http.Request) {
	var ms []gossip.Member
	if !s.loop.Do(func() { ms = s.members.Members() }) {
		writeError(w, http.StatusServiceUnavailable, "node shut down")
		return
	}
	views := make([]memberView, 0, len(ms))
	for _, m := range ms {
		views = append(views, memberView{ID: string(m.ID), Status: m.Status.String(), Incarnation: m.Incarnation})
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleIncidents(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.incidents.snapshot())
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		s.count("stream", http.StatusInternalServerError)
		return
	}
	sub, err := s.hub.subscribe()
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		s.count("stream", http.StatusServiceUnavailable)
		return
	}
	defer s.hub.unsubscribe(sub)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	_, _ = fmt.Fprint(w, ": connected\n\n")
	fl.Flush()
	s.count("stream", http.StatusOK)
	for {
		select {
		case ev, open := <-sub.ch:
			if !open {
				return // hub closed: server draining
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func parseSensitivity(s string) (dataflow.Sensitivity, error) {
	switch s {
	case "", "public":
		return dataflow.Public, nil
	case "internal":
		return dataflow.Internal, nil
	case "sensitive":
		return dataflow.Sensitive, nil
	default:
		return 0, fmt.Errorf("unknown sensitivity %q (want public, internal, or sensitive)", s)
	}
}

// writeJSON encodes before it writes the header, so a value JSON cannot
// carry (a NaN that reached the store from a peer or the library API)
// answers 500 with an error body instead of 200 with an empty one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		data, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
