package main

import (
	"context"
	"math"
	"testing"
	"time"
)

// fakeBackend serves every request in a fixed time on each connection and
// stalls once, at a known point, for a known time. With w connections its
// capacity is w/service requests per second.
type fakeBackend struct {
	service    time.Duration
	stallAfter int // the request index whose service includes the stall
	stall      time.Duration
}

func (f fakeBackend) do(_ context.Context, o op) error {
	d := f.service
	if f.stall > 0 && o.req == f.stallAfter {
		d += f.stall
	}
	time.Sleep(d)
	return nil
}

func TestLatencyIsTimedFromScheduledSend(t *testing.T) {
	const (
		rate    = 200.0
		count   = 200
		stallAt = 50
	)
	fb := fakeBackend{service: 500 * time.Microsecond, stallAfter: stallAt, stall: 100 * time.Millisecond}
	g := &generator{workers: 1, dropAfter: time.Second, do: fb.do}
	outs := g.run(context.Background(), fixedRate(0, rate, count, func(i int) int { return i }))

	// One connection: requests scheduled during the stall queue behind it.
	// Timed from their scheduled send, they carry the stall's remainder;
	// timed from their actual send, they would look fast.
	behind := outs[stallAt+1]
	if fromSched, fromSend := behind.end-behind.at, behind.end-behind.start; fromSched < 80*time.Millisecond || fromSend > 20*time.Millisecond {
		t.Fatalf("request behind the stall: %v from schedule, %v from send; want ~95ms and ~0.5ms", fromSched, fromSend)
	}
	// About 20 requests (100ms at 200/s) queue behind the stall, so the
	// tail sees it even though the backend was slow only once.
	s := summarize(outs)
	if s.n != count || s.failed != 0 {
		t.Fatalf("summary %+v, want %d samples and no failures", s, count)
	}
	if s.tail < 50 {
		t.Fatalf("tail %.2fms hides the stall", s.tail)
	}
	if s.p50 > 5 {
		t.Fatalf("median %.2fms, want ~0.5ms", s.p50)
	}
}

func TestGeneratorReportsItsOwnLateness(t *testing.T) {
	// do blocks the only worker, not the scheduler: the scheduler stays on
	// time, so its lateness is small while request latency is large.
	fb := fakeBackend{service: 2 * time.Millisecond}
	g := &generator{workers: 1, dropAfter: time.Second, do: fb.do}
	outs := g.run(context.Background(), fixedRate(0, 1000, 100, func(i int) int { return i }))
	lag, _, ok := lagTail(outs)
	if !ok || lag > 20 {
		t.Fatalf("generator lag tail %.2fms (ok=%v), want small", lag, ok)
	}
	if s := summarize(outs); s.tail < 50 {
		t.Fatalf("overloaded backend tail %.2fms, want the queue to show", s.tail)
	}

	// A schedule in the past is dispatched late, and the lateness is
	// reported rather than hidden.
	past := []op{{at: -50 * time.Millisecond, req: 0}}
	outs = g.run(context.Background(), past)
	if outs[0].lag < 50*time.Millisecond {
		t.Fatalf("lag %v, want >= 50ms for an op due 50ms before the run", outs[0].lag)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n        int
		wantV    float64
		wantUsed float64
	}{
		{n: 2000, wantV: 1980, wantUsed: 0.99}, // p99 leaves 20 beyond
		{n: 1000, wantV: 990, wantUsed: 0.99},  // exactly 10 beyond
		{n: 500, wantV: 490, wantUsed: 0.98},   // p99 would leave 5: lowered
		{n: 11, wantV: 1, wantUsed: 1.0 / 11},
	} {
		v, used, ok := tailQuantile(mk(tc.n), 0.99)
		if !ok || v != tc.wantV || math.Abs(used-tc.wantUsed) > 1e-12 {
			t.Errorf("n=%d: got %v at q=%v ok=%v, want %v at q=%v", tc.n, v, used, ok, tc.wantV, tc.wantUsed)
		}
		if beyond := tc.n - int(v); beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond", tc.n, beyond)
		}
	}
	if _, _, ok := tailQuantile(mk(10), 0.99); ok {
		t.Error("10 samples cannot support any tail with 10 beyond")
	}
}

func TestFailuresCountAsOverTheLimit(t *testing.T) {
	outs := make([]outcome, 100)
	for i := range outs {
		at := time.Duration(i) * 10 * time.Millisecond
		outs[i] = outcome{op: op{at: at}, end: at + time.Millisecond}
	}
	outs[3].dropped = true
	r := judge(100, outs, 10*time.Millisecond, time.Second)
	if r.pass || r.lat.failed != 1 {
		t.Fatalf("a dropped read must fail the probe: %+v", r)
	}
}

func TestSustainedSearchRecoversCapacity(t *testing.T) {
	// Two connections at 4ms each: capacity 500/s. Below it the queue
	// stays short; above it the backlog grows for the whole probe and the
	// tail blows through the limit.
	const capacity = 500.0
	fb := fakeBackend{service: 4 * time.Millisecond}
	g := &generator{workers: 2, dropAfter: 50 * time.Millisecond, do: fb.do}
	probe := func(rate float64) probeResult {
		ops := fixedRate(0, rate, int(rate*0.4), func(i int) int { return i })
		return judge(rate, g.run(context.Background(), ops), 40*time.Millisecond, 400*time.Millisecond)
	}
	best, tried := sustainedRate(capacity*2, 4, probe)
	if !best.pass {
		t.Fatalf("no probe passed: %+v", tried)
	}
	// time.Sleep overshoots a little, so the fake's real capacity is just
	// under 500/s; the search resolves to within one bisection step of the
	// [0.7, 1.2]x ceiling bracket over 4 steps (~3.4%) plus that overshoot.
	if best.rate < 0.8*capacity || best.rate > 1.05*capacity {
		t.Fatalf("sustained rate %.0f/s, want ~%.0f/s (probes %+v)", best.rate, capacity, tried)
	}
	if math.Abs(best.achieved-best.rate)/best.rate > 0.1 {
		t.Fatalf("achieved %.0f/s at offered %.0f/s", best.achieved, best.rate)
	}
}

func TestTallyCountsFixedRateDropsAsFailed(t *testing.T) {
	outs := []outcome{{}, {dropped: true}, {}}
	var fixed, probe tally
	fixed.add(outs, true)
	if fixed.attempted != 3 || fixed.failed != 1 || fixed.firstErr == nil {
		t.Fatalf("fixed-rate tally %+v, want 3 attempted, 1 failed and the drop reported", fixed)
	}
	probe.add(outs, false)
	if probe.attempted != 2 || probe.failed != 0 {
		t.Fatalf("probe tally %+v, want the drop skipped", probe)
	}
}
