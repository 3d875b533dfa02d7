package main

import (
	"net/http"
	"strings"
	"time"

	"repro/internal/serve"
)

// The two ledgers split one PUT and one simulated event into stages.
// Stage timings nest — a round trip contains the handler, the handler
// contains the loop turn, the loop turn contains the store write — and
// a stage's own time is its timing minus the stage it contains. All of
// it is measured from outside, on an idle system: the ledger says where
// an unloaded operation's time goes, the CPU shares say where a loaded
// run's does.
func ledgers(r *run, shares cpuShares) {
	end := r.spans.begin("ledgers", 0)
	defer end()
	ledgerPut(r)
	ledgerEvent(r, shares)
}

func ledgerPut(r *run) {
	registerProbeWire()
	// An hour between sync turns: the probe alone decides when one runs.
	c, err := serve.StartCluster(2, serve.ClusterOptions{SyncInterval: time.Hour})
	if err != nil {
		r.check("ledger-put", false, "%v", err)
		return
	}
	defer c.Close()
	n0 := c.Nodes[0]

	// Stage 1: an idle client's round trip on a kept-alive connection.
	calls := r.n(3000)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	failed := 0
	roundTrip := perOp(calls, func() {
		req, _ := http.NewRequest(http.MethodPut, n0.URL+"/v1/data/zone007/sensor03/temp", strings.NewReader(`{"value":21.5}`))
		resp, err := hc.Do(req)
		if err != nil {
			failed++
			return
		}
		resp.Body.Close()
	})
	if failed > 0 {
		r.check("ledger-put", false, "%d of %d round trips failed", failed, calls)
		return
	}
	// Stage 3: the loop turn around a store write, without the HTTP
	// front. Stages 2 and 4 are the handler and store probes.
	loopPut := perOp(r.n(20000), func() { n0.Node.Do(func() { n0.Store.Put(probeItem(7, 21.5)) }) })
	// One sync turn over 4096 dirty keys on real sockets; on the
	// simulator the same turn is the dataflow.sync_send_ns probe.
	var turn time.Duration
	rounds := r.n(6)
	for round := 0; round < rounds; round++ {
		n0.Node.Do(func() {
			for i := 0; i < probeKeys; i++ {
				n0.Store.Put(probeItem(i, float64(round)))
			}
			t0 := time.Now()
			n0.Store.SyncNow()
			turn += time.Since(t0)
		})
		time.Sleep(20 * time.Millisecond) // let the peer drain its socket
	}
	realSend := float64(turn) / float64(rounds) / probeKeys

	handler, store := r.metrics["serve.put_handler_ns"], r.metrics["dataflow.put_ns"]
	r.set("ledger.put.http_ns", roundTrip-handler)
	r.set("ledger.put.front_ns", handler-loopPut)
	r.set("ledger.put.loop_ns", loopPut-store)
	r.set("ledger.put.store_ns", store)
	r.set("ledger.put.sync_send_ns", r.metrics["dataflow.sync_send_ns"])
	r.set("ledger.put.codec_udp_ns", realSend-r.metrics["dataflow.sync_send_ns"])
	r.set("ledger.put.peer_apply_ns", r.metrics["dataflow.apply_ns"])
}

// ledgerEvent splits one simulated message. The wheel and dispatch
// stages come from the simnet probes; what the workload's handlers add
// is its measured wall time per message minus a bare message; journal
// and obs are the workload's own CPU profile, the time in or below
// core's journal records and the obs bus, spread over its messages.
func ledgerEvent(r *run, shares cpuShares) {
	timer, msg := r.metrics["simnet.timer_ns"], r.metrics["simnet.msg_ns"]
	r.set("ledger.event.wheel_ns", timer)
	r.set("ledger.event.dispatch_ns", msg-timer)
	msgs := r.metrics["simnet.msgs"]
	if msgs == 0 {
		return // not a simulator workload
	}
	r.set("ledger.event.handler_ns", r.metrics["simnet.wall_ns_per_msg"]-msg)
	cpuNs := float64(shares.total)
	r.set("ledger.event.journal_ns", shares.under("repro/internal/core.(*System).record")*cpuNs/msgs)
	r.set("ledger.event.obs_ns", shares.under("repro/internal/obs.")*cpuNs/msgs)
}
