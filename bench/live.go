package main

import (
	"time"

	"repro/internal/core"
)

// liveTimeScale is wall seconds per virtual second: the city runs five
// times faster than real time, which keeps its 405 event loops at about
// a third of one core here. Faster, and the two cores saturate, timers
// fire late, and the protocols' own timeouts change what is measured.
const liveTimeScale = 0.2

// runLiveCity runs the hardened ML4 city on real loopback sockets for
// --seconds of wall time. The time scale pins its wall clock, so its
// rate of work is per CPU second — how many virtual seconds one
// core-second buys, the measurable form of "minimum time scale per
// core" — as the median over one-second windows, sampled from outside
// while RunLive blocks.
func runLiveCity(r *run) {
	cfg := core.CityScenarioSmoke().Hardened()
	cfg.Preset = core.FaultsStandard
	cfg.Seed = subSeed(r.seed, r.workload, "scenario", 0)
	cfg.Duration = time.Duration(r.seconds / liveTimeScale * float64(time.Second))
	if r.quick {
		cfg.Zones, cfg.TempSensorsPerZone, cfg.Cloudlets = 6, 2, 2
	}

	// Set-up three times for a median. The first two systems run to
	// RunLive's first tick, which closes their sockets; the third is the
	// one measured.
	var (
		setups []float64
		sys    *core.System
		end    = r.spans.begin("setup", 0)
	)
	for k := 0; k < 3; k++ {
		c := cfg
		if k < 2 {
			c.Duration = time.Second
		}
		t0 := time.Now()
		s, err := core.NewLiveSystem(c, core.ML4, core.LiveConfig{TimeScale: liveTimeScale})
		if err == nil {
			setups = append(setups, time.Since(t0).Seconds())
			if k < 2 {
				_, _, err = s.RunLive()
			}
		}
		if err != nil {
			r.check("live-boot", false, "%v", err)
			return
		}
		sys = s
	}
	end()

	// Sample the process's CPU once a second while the city runs.
	var (
		windows []float64
		stop    = make(chan struct{})
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		lastT, lastC := time.Now(), cpuTime()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t, c := time.Now(), cpuTime()
				vsec := t.Sub(lastT).Seconds() / liveTimeScale
				windows = append(windows, vsec/(c-lastC).Seconds())
				lastT, lastC = t, c
			}
		}
	}()
	end = r.spans.begin("run", 0)
	c0, w0 := cpuTime(), time.Now()
	rep, info, err := sys.RunLive()
	cpu, wall := cpuTime()-c0, time.Since(w0)
	end()
	close(stop)
	<-done
	if err != nil {
		r.check("live-run", false, "%v", err)
		return
	}

	vsec := cfg.Duration.Seconds()
	r.set("setup_s", median(setups))
	r.count("setup_s", len(setups))
	if len(windows) == 0 { // a run shorter than one window
		windows = []float64{vsec / cpu.Seconds()}
	}
	r.set("work_per_s", median(windows))
	r.count("work_per_s", len(windows))
	r.set("cpu_ms_per_work", cpu.Seconds()*1e3/vsec)
	r.set("wire_bytes_per_work", float64(info.Net.SentBytes)/vsec)
	r.set("live.vsec_per_wsec", vsec/wall.Seconds())
	r.set("live.dgrams_sent", float64(info.Net.Sent))
	r.set("live.dgrams_recv", float64(info.Net.Received))
	r.set("live.dgrams_dropped", float64(info.Net.Dropped))
	if info.Net.Sent > 0 {
		r.set("live.bytes_per_dgram", float64(info.Net.SentBytes)/float64(info.Net.Sent))
		r.set("live.cpu_us_per_dgram", cpu.Seconds()*1e6/float64(info.Net.Sent))
	}
	r.set("live.R_goal", rep.GoalPersistence)
	r.set("live.invocation", rep.InvocationSuccess)
	r.set("live.data_avail", rep.DataAvailability)
	r.set("live.drain_s", (wall - info.WallDuration).Seconds())
	st := sys.SyncTraffic()
	r.set("sync.frames", float64(st.FramesSent))
	r.set("sync.entries", float64(st.EntriesSent))
	r.set("sync.acks", float64(st.AcksIn))
	r.set("sync.bytes", float64(st.BytesSent))

	end = r.spans.begin("check", 0)
	r.op(true)
	r.check("schedule-armed", info.Armed > 0 && info.Skipped == 0, "%d fault events armed, %d skipped", info.Armed, info.Skipped)
	// Partitions and crashes drop datagrams on purpose; anything beyond
	// them is loss the loopback or the event queues added.
	delivered := float64(info.Net.Received+info.Net.Dropped) / float64(max(info.Net.Sent, 1))
	r.check("datagrams-delivered", delivered >= 0.9, "(received + dropped by a fault) / sent = %.4f >= 0.9", delivered)
	// A -quick run ends before the first control period.
	r.check("controllers-invoked", rep.InvocationSuccess >= liveInvocationFloor || r.quick,
		"invocation success %.3f >= %.2f", rep.InvocationSuccess, liveInvocationFloor)
	end()
}

// liveInvocationFloor is what a healthy run clears with room to spare:
// it catches a city that does not run, not one that runs a little worse.
const liveInvocationFloor = 0.5
