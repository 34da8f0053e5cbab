package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Open-loop load generation. Requests are dispatched on a fixed schedule,
// whether or not earlier replies have arrived, and every latency is timed
// from the request's scheduled send time. A stall in the system is
// therefore charged to every request queued behind it instead of silently
// thinning the offered load (no coordinated omission).

// op is one scheduled request.
type op struct {
	at  time.Duration // scheduled send time, from the start of the run
	req int           // index into the caller's request table
}

// outcome is what happened to one op.
type outcome struct {
	op
	lag     time.Duration // how late the generator's own clock dispatched the op
	start   time.Duration // when a connection picked the op up
	end     time.Duration // when its reply was read
	err     error
	dropped bool // never sent: still queued dropAfter past the schedule end
}

// latency is the time from scheduled send to reply; a failed or dropped
// request counts as infinitely slow, so it misses any latency limit.
func (o outcome) latency() time.Duration {
	if o.err != nil || o.dropped {
		return time.Duration(math.MaxInt64)
	}
	return o.end - o.at
}

// generator sends scheduled ops through a fixed number of workers, one
// connection each.
type generator struct {
	workers int
	// dropAfter bounds how long past the last scheduled send a queued op
	// may still be sent; later ones are dropped.
	dropAfter time.Duration
	// do performs one request.
	do func(ctx context.Context, o op) error
}

// run dispatches ops (sorted by at) and returns one outcome per op, in
// schedule order, once every sent request has completed.
func (g *generator) run(ctx context.Context, ops []op) []outcome {
	out := make([]outcome, len(ops))
	queue := make(chan int, len(ops)) // never blocks the scheduler
	var dropAt time.Duration
	if len(ops) > 0 {
		dropAt = ops[len(ops)-1].at + g.dropAfter
	}
	start := time.Now()
	var wg sync.WaitGroup
	for range g.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				o.start = time.Since(start)
				if o.start > dropAt {
					o.dropped = true
					continue
				}
				o.err = g.do(ctx, o.op)
				o.end = time.Since(start)
			}
		}()
	}
	sent := 0
	for i, o := range ops {
		sleepUntil(ctx, start, o.at)
		if ctx.Err() != nil {
			break
		}
		out[i].op = o
		out[i].lag = time.Since(start) - o.at
		queue <- i
		sent++
	}
	for i := sent; i < len(ops); i++ {
		out[i] = outcome{op: ops[i], dropped: true}
	}
	close(queue)
	wg.Wait()
	return out
}

// sleepUntil blocks until start+at or until ctx is done. It calls
// nanosleep directly: on some hosts the Go runtime's timers wake up to a
// millisecond late, which the generator would charge to every request as
// latency; nanosleep is late by about the thread's timer slack (50µs).
func sleepUntil(ctx context.Context, start time.Time, at time.Duration) {
	for ctx.Err() == nil {
		d := at - time.Since(start)
		if d <= 0 {
			return
		}
		// Sleep in slices so a cancelled run stops promptly.
		d = min(d, 10*time.Millisecond)
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just re-checks the clock
	}
}

// fixedRate schedules count ops at rate per second, starting at offset,
// with request indexes from pick.
func fixedRate(offset time.Duration, rate float64, count int, pick func(i int) int) []op {
	ops := make([]op, count)
	for i := range ops {
		ops[i] = op{at: offset + time.Duration(float64(i)/rate*float64(time.Second)), req: pick(i)}
	}
	return ops
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailQuantile returns the nearest-rank q-quantile of sorted (ascending),
// lowered as far as needed to leave at least minBeyond samples above it,
// and the quantile actually used. ok is false with too few samples.
func tailQuantile(sorted []float64, q float64) (v, used float64, ok bool) {
	n := len(sorted)
	if n <= minBeyond {
		return 0, 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if top := n - 1 - minBeyond; idx > top {
		idx = top
	}
	return sorted[idx], float64(idx+1) / float64(n), true
}

// latencies summarizes a set of outcomes.
type latencies struct {
	n      int     // samples, failed and dropped ones included
	failed int     // failed or dropped
	p50    float64 // ms
	tail   float64 // ms, at quantile tailQ
	tailQ  float64
	ok     bool // enough samples for a tail
}

// summarize computes the median and the p99-or-highest-supported tail of
// the latencies, in milliseconds.
func summarize(outs []outcome) latencies {
	var ms []float64
	var s latencies
	for _, o := range outs {
		if o.err != nil || o.dropped {
			s.failed++
			ms = append(ms, math.Inf(1))
			continue
		}
		ms = append(ms, float64(o.latency())/1e6)
	}
	sort.Float64s(ms)
	s.n = len(ms)
	var ok bool
	if s.p50, _, ok = tailQuantile(ms, 0.5); !ok {
		return s
	}
	s.tail, s.tailQ, s.ok = tailQuantile(ms, 0.99)
	return s
}

// windowed summarizes the latencies in n consecutive windows of
// scheduled send time and reports the median of the windows' medians and
// of their tails: a burst of interference from outside the system under
// test spoils one window, not the figure.
func windowed(outs []outcome, n int, span time.Duration) latencies {
	parts := make([][]outcome, n)
	for _, o := range outs {
		w := min(int(int64(o.at)*int64(n)/int64(span)), n-1)
		parts[w] = append(parts[w], o)
	}
	s := latencies{ok: true}
	var p50s, tails, qs []float64
	for _, p := range parts {
		w := summarize(p)
		s.n += w.n
		s.failed += w.failed
		s.ok = s.ok && w.ok
		p50s = append(p50s, w.p50)
		tails = append(tails, w.tail)
		qs = append(qs, w.tailQ)
	}
	s.p50, s.tail, s.tailQ = median(p50s), median(tails), median(qs)
	return s
}

// lagTail is the generator's own lateness at its tail quantile, in ms.
func lagTail(outs []outcome) (ms, q float64, ok bool) {
	lags := make([]float64, len(outs))
	for i, o := range outs {
		lags[i] = float64(o.lag) / 1e6
	}
	sort.Float64s(lags)
	return tailQuantile(lags, 0.99)
}

// probeResult is one offered rate tried by the sustained-rate search.
type probeResult struct {
	rate     float64 // offered, 1/s
	achieved float64 // successful replies per second over the probe
	lat      latencies
	pass     bool
}

// keepUp is the share of the offered rate a probe's replies must sustain;
// below it the backlog is growing.
const keepUp = 0.9

// probeWindows is how many consecutive windows a probe's tail is taken
// in; the probe is judged on the median window, so one burst of outside
// interference does not fail a rate the system sustains.
const probeWindows = 3

// judge scores one probe's outcomes (scheduled over span) against
// the latency limit: every read must succeed and be sent, the tail must
// stay under the limit, and replies must keep up with the offered rate. A
// growing backlog shows up as dropped reads, a tail over the limit or a
// reply rate falling behind.
func judge(rate float64, outs []outcome, limit, span time.Duration) probeResult {
	r := probeResult{rate: rate, lat: windowed(outs, probeWindows, span)}
	var first, last time.Duration = -1, 0
	okCount := 0
	for _, o := range outs {
		if first < 0 {
			first = o.at
		}
		if o.err == nil && !o.dropped {
			okCount++
			if o.end > last {
				last = o.end
			}
		}
	}
	if okCount > 0 && last > first {
		r.achieved = float64(okCount) / (last - first).Seconds()
	}
	r.pass = r.lat.ok && r.lat.failed == 0 && r.lat.tail <= float64(limit)/1e6 && r.achieved >= keepUp*rate
	return r
}

// The sustained-rate bisection searches [bracketLow, bracketHigh] times the
// measured reply-rate ceiling; the top sits above it because one probe can
// read the ceiling low.
const bracketLow, bracketHigh = 0.7, 1.2

// sustainedRate finds the highest offered rate that passes: one probe at
// saturate, far above capacity, measures the reply-rate ceiling, then
// steps probes bisect the bracket around the ceiling. Bracketing each run
// by its own ceiling keeps the bisection's resolution fine without a
// range tuned to one host.
func sustainedRate(saturate float64, steps int, probe func(rate float64) probeResult) (best probeResult, tried []probeResult) {
	sat := probe(saturate)
	best, tried = searchSustained(bracketLow*sat.achieved, bracketHigh*sat.achieved, steps, probe)
	return best, append([]probeResult{sat}, tried...)
}

// searchSustained bisects offered rates in [lo, hi] geometrically, steps
// probes deep, and returns the passing probe with the highest rate. A
// failed probe is tried once more before the search moves below it, so one
// burst of outside interference cannot pull the result down. When no
// bisection probe passes it finally probes lo itself.
func searchSustained(lo, hi float64, steps int, probe func(rate float64) probeResult) (best probeResult, tried []probeResult) {
	found := false
	for i := 0; i < steps; i++ {
		mid := math.Sqrt(lo * hi)
		r := probe(mid)
		tried = append(tried, r)
		if !r.pass {
			r = probe(mid)
			tried = append(tried, r)
		}
		if r.pass {
			lo, best, found = mid, r, true
		} else {
			hi = mid
		}
	}
	if !found {
		best = probe(lo)
		tried = append(tried, best)
	}
	return best, tried
}
