package main

import (
	"sort"
	"sync"
	"time"
)

// The paced phase sends on a schedule, one request at a time per
// connection: each client sleeps until its next Poisson arrival is due,
// sends, and waits for the answer. A request is timed from when it was
// due, so a stall delays — and is charged to — every request due
// behind it, and how late the generator itself ran is reported beside
// it: on this sandbox a sleeping goroutine wakes about half a
// millisecond late, which is most of what from-due latency shows.

// clock is what pacing needs from time; tests substitute a fake.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.t0) }
func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// pacedSample is one paced request: how late it was sent, how long the
// call took, and how long after its due time the answer came.
type pacedSample struct {
	late, svc, fromDue time.Duration
}

// pace issues call(i) at due[i] on clk, never two at once.
func pace(clk clock, due []time.Duration, call func(i int)) []pacedSample {
	out := make([]pacedSample, len(due))
	for i, d := range due {
		clk.SleepUntil(d)
		sent := clk.Now()
		call(i)
		done := clk.Now()
		out[i] = pacedSample{late: sent - d, svc: done - sent, fromDue: done - d}
	}
	return out
}

type pacedResult []pacedSample

const pacedRatePerClient = 250

// pacedPhase runs the paced phase on every client's connection.
func pacedPhase(r *run, clients []*client, d time.Duration) pacedResult {
	var (
		mu  sync.Mutex
		res pacedResult
		wg  sync.WaitGroup
		clk = wallClock{time.Now()}
	)
	n := int(pacedRatePerClient * d.Seconds())
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			due := arrivals(r.seed, r.workload, c.id, pacedRatePerClient, n)
			samples := pace(clk, due, func(i int) {
				c.log = append(c.log, c.do(c.gen.next(), len(c.log)))
			})
			mu.Lock()
			res = append(res, samples...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return res
}

func (p pacedResult) into(r *run) {
	if len(p) == 0 {
		return
	}
	col := func(f func(pacedSample) time.Duration) []float64 {
		xs := make([]float64, len(p))
		for i, s := range p {
			xs[i] = float64(f(s)) / 1e3
		}
		sort.Float64s(xs)
		return xs
	}
	late := col(func(s pacedSample) time.Duration { return s.late })
	r.set("paced.late_p50_us", percentile(late, 50))
	p99, _ := tail(late, 99)
	r.set("paced.late_p99_us", p99)
	p99, _ = tail(col(func(s pacedSample) time.Duration { return s.fromDue }), 99)
	r.set("paced.due_p99_us", p99)
	r.set("paced.svc_p50_us", percentile(col(func(s pacedSample) time.Duration { return s.svc }), 50))
	r.count("paced.due_p99_us", len(p))
}
