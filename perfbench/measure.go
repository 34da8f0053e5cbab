package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times each run sets the workload up from scratch;
// setup_s is their median.
const setupReps = 3

// Phase shape of the measured pass, for a run of S seconds: a warm-up at
// the fixed rate, fixedShare·S at the fixed rate (latency), the rest of S
// in sustained-rate probes, and an untimed pass over the query pool
// (recall).
const (
	warmup     = time.Second
	fixedShare = 0.5
	// fixedWindows is how many consecutive windows the fixed-rate phase is
	// summarized in; latency figures are medians over the windows.
	fixedWindows = 5
	probeSteps   = 4
	readTimeout  = 5 * time.Second
	fixedDrop    = 5 * time.Second // a fixed-rate read queued this long past the schedule is dropped
)

// setUp runs the workload's set-up setupReps times, each from an empty
// directory and with the previous daemons stopped, and leaves the last
// set-up serving.
func setUp(ctx context.Context, e *env, w workload, withRouter bool) ([]stages, error) {
	var all []stages
	for rep := 0; rep < setupReps; rep++ {
		w.stop()
		dir := filepath.Join(e.work, fmt.Sprintf("setup%d", rep))
		removeDir(dir)
		st, err := w.setup(ctx, e, dir, withRouter)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		logf("set-up %d: %.3fs (gen %.3fs, build %.3fs, save %.3fs, serve boot %.3fs, router boot %.3fs)",
			rep, st.total, st.gen, st.build, st.save, st.serveBoot, st.routerBoot)
		all = append(all, st)
	}
	return all, nil
}

// loadDriver sends a plan's traffic through the open-loop generator over
// at most two connections.
type loadDriver struct {
	p      *plan
	client *http.Client
}

func newLoadDriver(p *plan) *loadDriver {
	return &loadDriver{p: p, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}}}
}

// run sends reads at rate for window over two connections and returns the
// outcomes.
func (l *loadDriver) run(ctx context.Context, rate float64, window, dropAfter time.Duration) []outcome {
	reads := fixedRate(0, rate, int(rate*window.Seconds()), func(int) int { return l.p.pick() })
	g := &generator{workers: 2, dropAfter: dropAfter, do: l.do}
	return g.run(ctx, reads)
}

func (l *loadDriver) do(ctx context.Context, o op) error {
	ctx, cancel := context.WithTimeout(ctx, readTimeout)
	defer cancel()
	var rep searchReply
	if err := post(ctx, l.client, l.p.url, l.p.reads[o.req], &rep); err != nil {
		return err
	}
	if rep.Partial {
		return fmt.Errorf("partial answer")
	}
	return l.p.check(o.req, rep.Results)
}

// tally accumulates attempted and failed requests across phases.
type tally struct {
	attempted, failed, mismatches int64
	firstErr                      error
}

// add counts a phase's reads. A dropped read counts as failed when
// dropsFail is set (the fixed-rate phases: the system never answered it);
// a sustained-rate probe drops reads by design, so there it counts as
// neither attempted nor failed.
func (t *tally) add(outs []outcome, dropsFail bool) {
	for _, o := range outs {
		if o.dropped && !dropsFail {
			continue
		}
		t.attempted++
		if o.dropped {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("read %d still queued %v past the schedule end", o.req, fixedDrop)
			}
			continue
		}
		if o.err != nil {
			t.failed++
			if isMismatch(o.err) {
				t.mismatches++
			}
			if t.firstErr == nil {
				t.firstErr = o.err
			}
		}
	}
}

// measured is the measured pass: set-up, then the fixed-rate phase, the
// sustained-rate search and the recall pass, with every answer checked.
func measured(ctx context.Context, e *env, w workload) (*report, error) {
	sp := w.traffic()
	setups, err := setUp(ctx, e, w, false)
	if err != nil {
		return nil, err
	}
	p, err := w.plan(ctx, e)
	if err != nil {
		return nil, err
	}
	l := newLoadDriver(p)
	var t tally

	outs := l.run(ctx, sp.readRate, warmup, fixedDrop)
	t.add(outs, true)

	fixed := time.Duration(fixedShare * e.seconds * float64(time.Second))
	outs = l.run(ctx, sp.readRate, fixed, fixedDrop)
	t.add(outs, true)
	lat := windowed(outs, fixedWindows, fixed)
	lag, lagQ, _ := lagTail(outs)

	// One saturating probe, the bisection steps, and about one retry per
	// two steps share the rest of the run.
	probeWindow := time.Duration((1 - fixedShare) * e.seconds / (probeSteps*1.5 + 1) * float64(time.Second))
	best, _ := sustainedRate(sp.saturate, probeSteps, func(rate float64) probeResult {
		outs := l.run(ctx, rate, probeWindow, sp.limit)
		t.add(outs, false)
		r := judge(rate, outs, sp.limit, probeWindow)
		logf("probe %.0f/s: achieved %.1f/s, p%.4g %.2fms over %d reads (%d failed or dropped), pass=%v",
			rate, r.achieved, r.lat.tailQ*100, r.lat.tail, r.lat.n, r.lat.failed, r.pass)
		return r
	})
	if !best.pass {
		logf("warning: no probe met the %v limit; reporting the lowest probe", sp.limit)
	}

	recall, err := p.final(ctx)
	if err != nil {
		// Scored as one failed request: the run prints its metrics but is
		// not correct.
		t.attempted++
		t.failed++
		if isMismatch(err) {
			t.mismatches++
		}
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("recall pass: %w", err)
		}
	}

	rss := 0.0
	for _, d := range p.serving {
		mb, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	totals := make([]float64, len(setups))
	for i, st := range setups {
		totals[i] = st.total
	}

	if !lat.ok {
		return nil, fmt.Errorf("fixed-rate phase has %d reads, too few for a tail percentile", lat.n)
	}
	logf("fixed-rate phase: %d reads at %.0f/s, p50 %.3fms, p%.4g %.3fms (%d samples), generator lag p%.4g %.3fms",
		lat.n, sp.readRate, lat.p50, lat.tailQ*100, lat.tail, lat.n, lagQ*100, lag)
	logf("sustained: %.1f/s achieved at offered %.0f/s", best.achieved, best.rate)
	errRate := 0.0
	if t.attempted > 0 {
		errRate = float64(t.failed) / float64(t.attempted)
	}
	info := fmt.Sprintf("query_p99_ms %.4f (p%.4g, median of %d windows, %d samples); sustained_qps %.1f 1/s; error_rate %.6g (%d of %d failed, %d mismatches)",
		lat.tail, lat.tailQ*100, fixedWindows, lat.n, best.achieved, errRate, t.failed, t.attempted, t.mismatches)
	fmt.Println(info)
	if t.firstErr != nil {
		logf("first failure: %v", t.firstErr)
	}

	rep := &report{
		Correct:   t.failed == 0 && t.mismatches == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":      {median(totals), "s"},
			"query_p50_ms": {lat.p50, "ms"},
			"recall_at_10": {recall, "fraction"},
			"serve_rss_mb": {rss, "MB"},
		},
	}
	return rep, nil
}

// median is the middle value (the mean of the two middle ones for an even
// count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
