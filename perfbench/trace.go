package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/permutation"
	"repro/internal/seqscan"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vfs"
)

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Query  int    `json:"query"`  // the query the span served, shared by all its rungs; -1: none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, query int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Query: query})
	t.spans[len(t.spans)-1].Start = time.Since(t.epoch).Nanoseconds()
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.epoch).Nanoseconds() }

// durations lists the durations of every span named name, in ns.
func (t *tracer) durations(name string) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	return d
}

// median is the median duration of the spans named name, in ns.
func (t *tracer) median(name string) float64 { return median(t.durations(name)) }

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerUnits names every per-layer metric and its unit.
var layerUnits = map[string]string{
	"dataset.gen_s": "s", "core.build_s": "s", "persist.save_s": "s", "permserve.boot_s": "s", "router.boot_s": "s",
	"space.dist_ns":        "ns",
	"permutation.order_ns": "ns",
	"core.search_ns":       "ns", "core.filter_ns": "ns", "core.refine_ns": "ns", "core.merge_ns": "ns",
	"core.candidates": "count", "core.dist_evals": "count", "core.refine_yield": "hits/eval",
	"core.recall_at_10": "fraction", "core.speedup_vs_seqscan": "x", "core.allocs_per_query": "count",
	"seqscan.search_ns":  "ns",
	"knngraph.search_ns": "ns", "knngraph.recall_at_10": "fraction", "knngraph.speedup_vs_seqscan": "x",
	"server.handler_ns": "ns", "server.overhead_ns": "ns", "server.allocs_per_req": "count", "server.bytes_per_req": "B",
	"permserve.request_ns": "ns", "permserve.transport_ns": "ns",
	"router.request_ns": "ns", "router.slowest_leg_ns": "ns", "router.overhead_ns": "ns",
	"lsm.add_ns": "ns", "lsm.fsyncs_per_write": "count", "lsm.bytes_per_user_byte": "ratio", "lsm.seal_ms": "ms",
	"lsm.compactions": "count", "lsm.compact_s": "s", "lsm.search_ns": "ns", "lsm.components": "count",
	"lsm.base_ns": "ns", "lsm.tier_ns": "ns", "lsm.memtable_ns": "ns", "lsm.mask_ns": "ns",
	"loadgen.lag_p99_ms": "ms", "loadgen.sent": "count",
}

// loadgenWindow is how long the traced pass runs the load generator at the
// fixed rate, to report the generator's own lateness.
const loadgenWindow = 2 * time.Second

// traced is the traced pass: set-up (with a router even in front of a
// single server), then every rung of the layer ladder for the query pool,
// then a short fixed-rate load-generator run.
func traced(ctx context.Context, e *env, w workload) (*report, error) {
	setups, err := setUp(ctx, e, w, true)
	if err != nil {
		return nil, err
	}
	p, err := w.plan(ctx, e)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m, mismatches, err := w.layers(ctx, e, p, tr)
	if err != nil {
		return nil, err
	}
	pick := func(f func(stages) float64) float64 {
		v := make([]float64, len(setups))
		for i, st := range setups {
			v[i] = f(st)
		}
		return median(v)
	}
	m["dataset.gen_s"] = pick(func(s stages) float64 { return s.gen })
	m["core.build_s"] = pick(func(s stages) float64 { return s.build })
	m["persist.save_s"] = pick(func(s stages) float64 { return s.save })
	m["permserve.boot_s"] = pick(func(s stages) float64 { return s.serveBoot })
	m["router.boot_s"] = pick(func(s stages) float64 { return s.routerBoot })

	outs := newLoadDriver(p).run(ctx, w.traffic().readRate, loadgenWindow, fixedDrop)
	var t tally
	t.add(outs, true)
	lag, lagQ, ok := lagTail(outs)
	if !ok {
		return nil, fmt.Errorf("load generator sent too few reads for a lag tail")
	}
	logf("load generator: %d reads sent, lag p%.4g %.3fms", t.attempted, lagQ*100, lag)
	m["loadgen.lag_p99_ms"] = lag
	m["loadgen.sent"] = float64(t.attempted)

	spans := filepath.Join(filepath.Dir(e.work), "spans")
	if err := os.MkdirAll(spans, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(spans, fmt.Sprintf("%s-seed%d.jsonl", w.traffic().name, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	logf("wrote %d spans to %s", len(tr.spans), path)
	if t.firstErr != nil {
		logf("first failure: %v", t.firstErr)
	}

	rep := &report{
		Correct:   mismatches == 0 && t.failed == 0,
		Attempted: t.attempted + int64(len(tr.durations("core.search"))),
		Failed:    t.failed + int64(mismatches),
		Metrics:   map[string]metric{},
	}
	for name, unit := range layerUnits {
		v, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("traced pass did not measure %s", name)
		}
		rep.Metrics[name] = metric{v, unit}
	}
	return rep, nil
}

// distBatch is how many distances one kernel span times: a single call is
// too short for the clock.
const distBatch = 256

// seqscanQueries is how many pool queries the exact-scan rung times.
const seqscanQueries = 256

// ladderBlock is how many queries each rung of the traced ladder runs
// before the next rung; pool sizes are multiples of it.
const ladderBlock = 32

// distSink keeps the timed distance calls from being optimized away.
var distSink float64

// kernelNs times Space.Distance over random pairs of data, in batches, and
// returns the median per-call time.
func kernelNs[T any](tr *tracer, sp space.Space[T], data []T, seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	for b := 0; b < 200; b++ {
		pairs := make([][2]int, distBatch)
		for i := range pairs {
			pairs[i] = [2]int{r.Intn(len(data)), r.Intn(len(data))}
		}
		s := tr.begin("space.distance_batch", 0, -1)
		for _, pr := range pairs {
			distSink += sp.Distance(data[pr[0]], data[pr[1]])
		}
		tr.end(s)
	}
	return tr.median("space.distance_batch") / distBatch
}

// perCall runs f n times and returns the heap allocations and bytes per
// call.
func perCall(n int, f func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// pivotsOf returns the pivots the query-order rung times.
func (b *bench[T]) pivotsOf(idx index.Index[T], data []T, seed int64) (*permutation.Pivots[T], error) {
	if p, ok := idx.(interface{ Pivots() *permutation.Pivots[T] }); ok {
		return p.Pivots(), nil
	}
	// NAPP keeps its pivots private; NewNAPP samples them exactly so.
	return permutation.Sample(rand.New(rand.NewSource(seed)), b.sp, data, b.pivots)
}

// inProcess opens an in-process server over each index directory, with
// the daemon's options.
func (b *bench[T]) inProcess() ([]http.Handler, func(), error) {
	var hs []http.Handler
	var regs []*server.Registry
	closeAll := func() {
		for _, r := range regs {
			_ = r.Close()
		}
	}
	for _, sd := range b.d.dirs {
		reg, err := server.OpenDir(sd)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		regs = append(regs, reg)
		srv := server.New(reg, server.Options{
			Timeout: 10 * time.Second, // permserve's default
			Metrics: obs.NewRegistry(),
			Log:     log.New(io.Discard, "", 0),
		})
		hs = append(hs, srv.Handler())
	}
	return hs, closeAll, nil
}

// mergeAnswers merges per-shard answers canonically into the top k.
func mergeAnswers(parts [][]hit) []hit {
	var all []hit
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// layers runs the traced pass's ladder: for each pool query, kernel →
// core searcher → in-process handler → permserve over loopback (each
// shard) → permrouter, plus the graph and LSM reference rungs. A layer's
// number is its rung's median minus the next-inner rung's median.
func (b *bench[T]) layers(ctx context.Context, e *env, p *plan, tr *tracer) (map[string]float64, int, error) {
	m := map[string]float64{}
	c := b.d.c
	pool, enc, err := b.wire(c.pool())
	if err != nil {
		return nil, 0, err
	}
	idxs, err := b.loadIndexes()
	if err != nil {
		return nil, 0, err
	}
	coreIdx, err := b.reference(idxs)
	if err != nil {
		return nil, 0, err
	}
	sp, ok := coreIdx.(index.SearcherProvider[T])
	if !ok {
		return nil, 0, fmt.Errorf("%s mints no searchers", coreIdx.Name())
	}
	searcher := sp.NewSearcher()
	traceable, ok := searcher.(obs.Traceable)
	if !ok {
		return nil, 0, fmt.Errorf("%s searchers are not traceable", coreIdx.Name())
	}
	shardData := c.base()
	if b.d.ids != nil {
		shardData = shard.Subset(shardData, b.d.ids[0])
	}
	pv, err := b.pivotsOf(idxs[0], shardData, corpusSeed)
	if err != nil {
		return nil, 0, err
	}

	m["space.dist_ns"] = kernelNs(tr, b.sp, c.base(), e.seed)

	// The exact scan, the denominator of every speedup, timed on a prefix
	// of the pool; its answers must be the plan's ground truth.
	truth := p.truth
	ss := seqscan.New(b.sp, c.base())
	for i, q := range pool[:min(len(pool), seqscanQueries)] {
		s := tr.begin("seqscan.search", 0, -1)
		got := ss.Search(q, k)
		tr.end(s)
		if !slices.Equal(got, truth[i]) {
			return nil, 0, fmt.Errorf("seqscan answer %d differs from the ground truth", i)
		}
	}
	seqNs := tr.median("seqscan.search")
	m["seqscan.search_ns"] = seqNs

	s := tr.begin("knngraph.build", 0, -1)
	gopts := b.graph
	gopts.Seed = corpusSeed
	graph, err := knngraph.NewSW(b.sp, c.base(), gopts)
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	graph.SetSearchParams(gopts.InitAttempts, b.graphEf)

	handlers, closeHandlers, err := b.inProcess()
	if err != nil {
		return nil, 0, err
	}
	defer closeHandlers()
	path := "/v1/indexes/" + b.indexName() + "/search"
	bodies := make([][]byte, len(pool))
	for i := range pool {
		bodies[i] = searchBody(enc[i], nil)
	}
	request := func(i int) (*http.Request, *httptest.ResponseRecorder) {
		return httptest.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[i])), httptest.NewRecorder()
	}

	// Allocation counts, untraced: the searcher alone, then the handler
	// net of building the request and recorder.
	m["core.allocs_per_query"], _ = perCall(len(pool), func(i int) { searcher.Search(pool[i], k) })
	buildA, buildB := perCall(len(pool), func(i int) { request(i) })
	serveA, serveB := perCall(len(pool), func(i int) {
		for _, h := range handlers {
			req, rec := request(i)
			h.ServeHTTP(rec, req)
		}
	})
	m["server.allocs_per_req"] = serveA - buildA*float64(len(handlers))
	m["server.bytes_per_req"] = serveB - buildB*float64(len(handlers))

	tree, lm, err := b.replayLSM(filepath.Join(e.work, "trace", "lsm"), coreIdx, tr, e)
	if err != nil {
		return nil, 0, err
	}
	defer tree.Close()
	for name, v := range lm {
		m[name] = v
	}

	var legs []string
	for _, srv := range b.d.servers {
		legs = append(legs, srv.url+path)
	}
	routerURL := b.d.router.url + path
	// One connection per daemon, never shared with the load generator.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}

	var (
		filterNs, refineNs, mergeNs   []float64
		baseNs, tierNs, memNs, maskNs []float64
		slowest                       []float64
		cands, dists, comps           float64
		hits, recallSum, graphRecall  float64
		mismatches, queries           int
		scr                           permutation.Scratch
		want                          = make([][]topk.Neighbor, ladderBlock)
	)
	// Each rung runs over a block of queries before the next rung starts,
	// so every rung is timed in its own cache steady state, not just after
	// another rung evicted its data. The spans of one query share its id.
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for first := 0; first < len(pool) || time.Now().Before(deadline); first += ladderBlock {
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		for j := 0; j < ladderBlock; j++ {
			s := tr.begin("permutation.order", 0, first+j)
			pv.OrderWith(&scr, pool[(first+j)%len(pool)])
			tr.end(s)
		}

		for j := 0; j < ladderBlock; j++ {
			i := (first + j) % len(pool)
			var qt obs.QueryTrace
			traceable.SetTrace(&qt)
			s := tr.begin("core.search", 0, first+j)
			want[j] = searcher.SearchAppend(want[j][:0], pool[i], k)
			tr.end(s)
			traceable.SetTrace(nil)
			filterNs = append(filterNs, float64(qt.FilterNs))
			refineNs = append(refineNs, float64(qt.RefineNs))
			mergeNs = append(mergeNs, float64(qt.MergeNs))
			cands += float64(qt.FilterCandidates)
			dists += float64(qt.RefineDistances)
			r := recallAt(want[j], truth[i])
			recallSum += r
			hits += r * float64(len(truth[i]))
		}

		for j := 0; j < ladderBlock; j++ {
			reqs := make([]*http.Request, len(handlers))
			recs := make([]*httptest.ResponseRecorder, len(handlers))
			for h := range handlers {
				reqs[h], recs[h] = request((first + j) % len(pool))
			}
			s := tr.begin("server.handler", 0, first+j)
			for h, hd := range handlers {
				hd.ServeHTTP(recs[h], reqs[h])
			}
			tr.end(s)
			parts := make([][]hit, len(handlers))
			for h, rec := range recs {
				var rep searchReply
				if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || rec.Code != http.StatusOK {
					return nil, 0, fmt.Errorf("in-process handler: %d %s", rec.Code, rec.Body.String())
				}
				parts[h] = rep.Results
			}
			if !sameAnswer(mergeAnswers(parts), want[j]) {
				mismatches++
			}
		}

		for j := 0; j < ladderBlock; j++ {
			s := tr.begin("permserve.request", 0, first+j)
			parts := make([][]hit, len(legs))
			worst := int64(0)
			for l, url := range legs {
				ls := tr.begin("permserve.leg", s, first+j)
				var rep searchReply
				err := post(ctx, client, url, bodies[(first+j)%len(pool)], &rep)
				tr.end(ls)
				if err != nil {
					return nil, 0, err
				}
				parts[l] = rep.Results
				worst = max(worst, tr.spans[ls-1].End-tr.spans[ls-1].Start)
			}
			tr.end(s)
			slowest = append(slowest, float64(worst))
			if !sameAnswer(mergeAnswers(parts), want[j]) {
				mismatches++
			}
		}

		for j := 0; j < ladderBlock; j++ {
			var rep searchReply
			s := tr.begin("router.request", 0, first+j)
			err := post(ctx, client, routerURL, bodies[(first+j)%len(pool)], &rep)
			tr.end(s)
			if err != nil {
				return nil, 0, err
			}
			if rep.Partial || !sameAnswer(rep.Results, want[j]) {
				mismatches++
			}
		}

		for j := 0; j < ladderBlock; j++ {
			i := (first + j) % len(pool)
			s := tr.begin("knngraph.search", 0, first+j)
			got := graph.Search(pool[i], k)
			tr.end(s)
			graphRecall += recallAt(got, truth[i])
		}

		for j := 0; j < ladderBlock; j++ {
			var lt obs.QueryTrace
			s := tr.begin("lsm.search", 0, first+j)
			_, err := tree.SearchAppendTraced(ctx, nil, coreIdx, pool[(first+j)%len(pool)], k, &lt)
			tr.end(s)
			if err != nil {
				return nil, 0, err
			}
			baseNs = append(baseNs, float64(lt.BaseNs))
			tierNs = append(tierNs, float64(lt.TierNs))
			memNs = append(memNs, float64(lt.MemtableNs))
			maskNs = append(maskNs, float64(lt.MaskNs))
			comps += float64(lt.Components)
		}
		queries += ladderBlock
	}
	nq := float64(queries)
	coreNs := tr.median("core.search")
	handlerNs := tr.median("server.handler")
	requestNs := tr.median("permserve.request")
	routerNs := tr.median("router.request")
	graphNs := tr.median("knngraph.search")
	m["permutation.order_ns"] = tr.median("permutation.order")
	m["core.search_ns"] = coreNs
	m["core.filter_ns"] = median(filterNs)
	m["core.refine_ns"] = median(refineNs)
	m["core.merge_ns"] = median(mergeNs)
	m["core.candidates"] = cands / nq
	m["core.dist_evals"] = dists / nq
	m["core.refine_yield"] = hits / dists
	m["core.recall_at_10"] = recallSum / nq
	m["core.speedup_vs_seqscan"] = seqNs / coreNs
	m["server.handler_ns"] = handlerNs
	m["server.overhead_ns"] = handlerNs - coreNs
	m["permserve.request_ns"] = requestNs
	m["permserve.transport_ns"] = requestNs - handlerNs
	m["router.request_ns"] = routerNs
	m["router.slowest_leg_ns"] = median(slowest)
	m["router.overhead_ns"] = routerNs - median(slowest)
	m["knngraph.search_ns"] = graphNs
	m["knngraph.recall_at_10"] = graphRecall / nq
	m["knngraph.speedup_vs_seqscan"] = seqNs / graphNs
	m["lsm.search_ns"] = tr.median("lsm.search")
	m["lsm.base_ns"] = median(baseNs)
	m["lsm.tier_ns"] = median(tierNs)
	m["lsm.memtable_ns"] = median(memNs)
	m["lsm.mask_ns"] = median(maskNs)
	m["lsm.components"] = comps / nq
	logf("traced %d ladder passes over %d pool queries; %d answer mismatches", queries, len(pool), mismatches)
	return m, mismatches, nil
}

// countingFS counts the durability barriers and the bytes written through
// a filesystem.
type countingFS struct {
	vfs.FS
	syncs, written atomic.Int64
}

type countingFile struct {
	vfs.File
	fs *countingFS
}

func (c *countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Open(name string) (vfs.File, error) { return c.wrap(c.FS.Open(name)) }

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	return c.wrap(c.FS.OpenFile(name, flag, perm))
}

func (c *countingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}

func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// replayLSM opens an LSM tree with the server's defaults over base and a
// counting filesystem, replays a write script as fast as it runs, and reports the write-path layer metrics. The
// returned tree holds the replayed state for the search rung.
func (b *bench[T]) replayLSM(dir string, base index.Index[T], tr *tracer, e *env) (*lsm.Tree[T], map[string]float64, error) {
	_, payloads, err := b.wire(b.d.c.fresh())
	if err != nil {
		return nil, nil, err
	}
	script := newWriteScript(e.seed, b.n, replayOps(e.seconds), len(payloads))
	cfs := &countingFS{FS: vfs.OS{}}
	tree, err := lsm.Open(lsm.Options[T]{Dir: dir, Space: b.sp, BaseN: b.n, Decode: b.decode, FS: cfs})
	if err != nil {
		return nil, nil, err
	}
	var addNs, sealMs, compactS []float64
	var userBytes, writes int64
	compactions := 0
	var compactStart time.Time
	prev := tree.Status()
	observe := func(st lsm.Status, opNs float64) {
		if st.WalSeq > prev.WalSeq && opNs > 0 {
			sealMs = append(sealMs, opNs/1e6)
		}
		if st.Compacting && !prev.Compacting {
			compactStart = time.Now()
		}
		if len(st.Tiers) < len(prev.Tiers) {
			compactions++
			if !compactStart.IsZero() {
				compactS = append(compactS, time.Since(compactStart).Seconds())
				compactStart = time.Time{}
			}
		}
		prev = st
	}
	root := tr.begin("lsm.replay", 0, -1)
	for _, w := range script {
		var s int
		switch w.kind {
		case addOp:
			s = tr.begin("lsm.add", root, -1)
			_, err = tree.Add(payloads[w.obj])
			tr.end(s)
			userBytes += int64(len(payloads[w.obj]))
		case deleteOp:
			s = tr.begin("lsm.delete", root, -1)
			err = tree.Delete(w.id)
			tr.end(s)
		}
		if err != nil {
			tree.Close()
			return nil, nil, err
		}
		writes++
		d := float64(tr.spans[s-1].End - tr.spans[s-1].Start)
		if w.kind == addOp {
			addNs = append(addNs, d)
		}
		observe(tree.Status(), d)
	}
	// Flush: the last seal tips the tier count over the compaction
	// trigger.
	s := tr.begin("lsm.flush", root, -1)
	_, err = tree.Flush()
	tr.end(s)
	if err != nil {
		tree.Close()
		return nil, nil, err
	}
	observe(tree.Status(), float64(tr.spans[s-1].End-tr.spans[s-1].Start))
	for deadline := time.Now().Add(time.Minute); prev.Compacting; {
		if time.Now().After(deadline) {
			tree.Close()
			return nil, nil, fmt.Errorf("lsm compaction still running a minute after the replay")
		}
		time.Sleep(time.Millisecond)
		observe(tree.Status(), 0)
	}
	tr.end(root)
	logf("lsm replay: %d writes, %d seals, %d compactions, %d fsyncs, %d bytes written",
		writes, len(sealMs), compactions, cfs.syncs.Load(), cfs.written.Load())
	return tree, map[string]float64{
		"lsm.add_ns":              median(addNs),
		"lsm.fsyncs_per_write":    float64(cfs.syncs.Load()) / float64(writes),
		"lsm.bytes_per_user_byte": float64(cfs.written.Load()) / float64(userBytes),
		"lsm.seal_ms":             median(sealMs),
		"lsm.compactions":         float64(compactions),
		"lsm.compact_s":           median(compactS),
	}, nil
}
