// Command riotnode runs one resilient-IoT edge node on a real network:
// SWIM gossip membership plus a governed CRDT data store over UDP —
// the ML4 edge stack outside the simulator.
//
// Start a two-node cluster on one machine:
//
//	riotnode -id a -bind 127.0.0.1:7946 -peers b=127.0.0.1:7947
//	riotnode -id b -bind 127.0.0.1:7947 -peers a=127.0.0.1:7946 -seeds a \
//	         -put room1/temp=21.5
//
// Each node prints its membership view and store contents once per
// second. Stop with ^C (or -duration for a bounded run). -put values
// must be finite numbers (NaN and Inf are rejected: JSON cannot carry
// them to readers).
//
// With -metrics-addr the node serves Prometheus-format metrics at
// /metrics, a liveness probe at /healthz, and a readiness probe at
// /readyz that passes once the node has joined its cluster: a peer has
// answered it, normally the seed's join ack one round trip after start
// (a seedless node is ready immediately). The metrics include incident
// counters derived from membership transitions:
// riot_incidents_total, riot_incidents_open, and a
// riot_incident_recovery_seconds histogram of dead-to-alive recovery
// times. Use :0 for an ephemeral port; the chosen address is printed
// on startup:
//
//	riotnode -id a -bind 127.0.0.1:7946 -metrics-addr 127.0.0.1:9100
//	curl http://127.0.0.1:9100/metrics
//
// With -serve-addr the node additionally serves the data-plane HTTP
// API (PUT/GET /v1/data, /v1/members, /v1/incidents, /v1/stream) with
// admission control — see internal/serve. SIGINT or SIGTERM drains
// the serve listener, announces departure via gossip, and exits
// cleanly:
//
//	riotnode -id a -bind 127.0.0.1:7946 -serve-addr 127.0.0.1:8080
//	curl -X PUT -d '{"value": 21.5}' http://127.0.0.1:8080/v1/data/room1/temp
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataflow"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/realnet"
	"repro/internal/serve"
	"repro/internal/simnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "riotnode:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	id          simnet.NodeID
	bind        string
	peers       map[simnet.NodeID]string
	seeds       []simnet.NodeID
	puts        map[string]float64
	duration    time.Duration
	interval    time.Duration
	metricsAddr string
	serveAddr   string
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("riotnode", flag.ContinueOnError)
	id := fs.String("id", "", "node identifier (required)")
	bind := fs.String("bind", "127.0.0.1:0", "UDP bind address")
	peersFlag := fs.String("peers", "", "comma-separated id=host:port peer list")
	seedsFlag := fs.String("seeds", "", "comma-separated peer ids to join through")
	putFlag := fs.String("put", "", "comma-separated key=value data to publish")
	duration := fs.Duration("duration", 0, "run time; 0 runs until interrupted")
	interval := fs.Duration("interval", time.Second, "status print interval")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /healthz on this address (empty disables)")
	serveAddr := fs.String("serve-addr", "", "serve the /v1 data API on this address (empty disables)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *id == "" {
		return config{}, fmt.Errorf("-id is required")
	}
	cfg := config{
		id:          simnet.NodeID(*id),
		bind:        *bind,
		peers:       make(map[simnet.NodeID]string),
		puts:        make(map[string]float64),
		duration:    *duration,
		interval:    *interval,
		metricsAddr: *metricsAddr,
		serveAddr:   *serveAddr,
	}
	if *peersFlag != "" {
		for _, kv := range strings.Split(*peersFlag, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				return config{}, fmt.Errorf("bad peer %q (want id=host:port)", kv)
			}
			cfg.peers[simnet.NodeID(parts[0])] = parts[1]
		}
	}
	if *seedsFlag != "" {
		for _, s := range strings.Split(*seedsFlag, ",") {
			if _, ok := cfg.peers[simnet.NodeID(s)]; !ok {
				return config{}, fmt.Errorf("seed %q is not in -peers", s)
			}
			cfg.seeds = append(cfg.seeds, simnet.NodeID(s))
		}
	}
	if *putFlag != "" {
		for _, kv := range strings.Split(*putFlag, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return config{}, fmt.Errorf("bad put %q (want key=value)", kv)
			}
			v, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return config{}, fmt.Errorf("bad put value %q: %w", parts[1], err)
			}
			// JSON has no NaN or Inf: a stored one would wedge every
			// read of the key, on every peer it replicates to.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return config{}, fmt.Errorf("bad put value %q: not finite", parts[1])
			}
			cfg.puts[parts[0]] = v
		}
	}
	return cfg, nil
}

func run(args []string, out io.Writer) error {
	cfg, err := parseArgs(args)
	if err != nil {
		return err
	}

	node, err := realnet.NewNode(cfg.id, cfg.bind)
	if err != nil {
		return err
	}
	var peerIDs []simnet.NodeID
	for id, addr := range cfg.peers {
		if err := node.AddPeer(id, addr); err != nil {
			node.Close()
			return err
		}
		peerIDs = append(peerIDs, id)
	}
	sort.Slice(peerIDs, func(i, j int) bool { return peerIDs[i] < peerIDs[j] })

	// With metrics on, the registry counts the node's bus events, takes
	// the serve front door's metrics (one scrape surface) and the
	// incident counters.
	var reg *obs.Registry
	if cfg.metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	// One trusted site domain and fixed intervals: riotnode is a
	// connectivity tool; richer layouts come from the library API. Both
	// the /readyz probe and the serve front door gate on cn.Ready.
	cn := serve.StartNode(node, peerIDs, cfg.seeds, reg, serve.ClusterOptions{
		ProbeInterval: 500 * time.Millisecond,
		SyncInterval:  time.Second,
	})
	defer cn.Close()
	members, store := cn.Members, cn.Store

	var aliveGauge, keysGauge *obs.Gauge
	var syncBytesGauge, syncEntriesGauge, syncPendingGauge *obs.Gauge
	var netDroppedGauge, netDelayedGauge, netShapedGauge, netMalformedGauge *obs.Gauge
	if reg != nil {
		aliveGauge = reg.Gauge("riot_members_alive", "members this node believes alive")
		keysGauge = reg.Gauge("riot_store_keys", "keys in the local replicated store")
		syncBytesGauge = reg.Gauge("riot_sync_bytes_sent", "replication bytes shipped to peers")
		syncEntriesGauge = reg.Gauge("riot_sync_entries_sent", "replication entries shipped to peers")
		syncPendingGauge = reg.Gauge("riot_sync_pending_keys", "dirty keys buffered for unreachable peers")
		netDroppedGauge = reg.Gauge("riot_realnet_dropped_total",
			"datagrams dropped by partitions, shaper loss or the crash fault")
		netDelayedGauge = reg.Gauge("riot_realnet_delayed_total",
			"datagrams routed through a shaped link's delay queue")
		netShapedGauge = reg.Gauge("riot_realnet_shaped_total",
			"datagrams that traversed a link with an active shaping rule")
		netMalformedGauge = reg.Gauge("riot_realnet_malformed_total",
			"datagrams received but refused by the wire codec")

		ln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		srv := &http.Server{Handler: obs.Handler(reg, node.Up, cn.Ready)}
		defer srv.Close()
		go func() { _ = srv.Serve(ln) }()
		fmt.Fprintf(out, "metrics: http://%s/metrics\n", ln.Addr())
	}
	if cfg.serveAddr != "" {
		ln, err := net.Listen("tcp", cfg.serveAddr)
		if err != nil {
			return fmt.Errorf("serve listener: %w", err)
		}
		go func() { _ = cn.Server.Serve(ln) }()
		fmt.Fprintf(out, "serve: http://%s\n", ln.Addr())
	}

	node.Do(func() {
		for key, val := range cfg.puts {
			store.Put(dataflow.Item{
				Key: key, Value: val,
				Label: dataflow.Label{Topic: "cli", Sensitivity: dataflow.Public, Origin: "site"},
			})
		}
	})

	fmt.Fprintf(out, "riotnode %s listening on %s (%d peers, %d seeds)\n",
		cfg.id, node.Addr(), len(cfg.peers), len(cfg.seeds))

	// The status loop multiplexes the print ticker, the optional run
	// deadline, and shutdown signals. A deadline shorter than the
	// print interval still ends the run on time.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	var deadlineC <-chan time.Time
	if cfg.duration > 0 {
		deadlineTimer := time.NewTimer(cfg.duration)
		defer deadlineTimer.Stop()
		deadlineC = deadlineTimer.C
	}
	ticker := time.NewTicker(cfg.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			printStatus(out, node, members, store)
			if aliveGauge != nil {
				node.Do(func() {
					aliveGauge.Set(float64(members.AliveCount()))
					keysGauge.Set(float64(len(store.Keys())))
					st := store.SyncStats()
					syncBytesGauge.Set(float64(st.BytesSent))
					syncEntriesGauge.Set(float64(st.EntriesSent))
					pending := 0
					for _, p := range peerIDs {
						pending += store.PendingFor(p)
					}
					syncPendingGauge.Set(float64(pending))
					ns := node.NetStats()
					netDroppedGauge.Set(float64(ns.Dropped))
					netDelayedGauge.Set(float64(ns.Delayed))
					netShapedGauge.Set(float64(ns.Shaped))
					netMalformedGauge.Set(float64(ns.Malformed))
				})
			}
		case <-deadlineC:
			return shutdown(out, cn)
		case sig := <-sigc:
			fmt.Fprintf(out, "received %s, draining\n", sig)
			return shutdown(out, cn)
		}
	}
}

// shutdown drains gracefully: stop accepting API traffic and flush
// accepted writes, announce departure so peers mark this node left
// instead of suspect, then let the deferred Close stop the loop.
func shutdown(out io.Writer, cn *serve.ClusterNode) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := cn.Server.Shutdown(ctx); err != nil {
		fmt.Fprintf(out, "serve drain: %v\n", err)
	}
	cancel()
	cn.Node.Do(func() { cn.Members.Leave() })
	return nil
}

func printStatus(out io.Writer, node *realnet.Node, members *gossip.Protocol, store *dataflow.Store) {
	node.Do(func() {
		var b strings.Builder
		fmt.Fprintf(&b, "[%s] members:", time.Now().Format("15:04:05"))
		for _, m := range members.Members() {
			fmt.Fprintf(&b, " %s=%s", m.ID, m.Status)
		}
		keys := store.Keys()
		if len(keys) > 0 {
			b.WriteString(" | data:")
			for _, k := range keys {
				if item, ok := store.Get(k); ok {
					fmt.Fprintf(&b, " %s=%v", k, item.Value)
				}
			}
		}
		fmt.Fprintln(out, b.String())
	})
}
