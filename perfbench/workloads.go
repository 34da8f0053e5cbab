package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/space"
)

// spec is a workload's fixed traffic shape, calibrated once on a 2-vCPU
// AMD EPYC host and then frozen (see README.md).
type spec struct {
	name     string
	readRate float64       // offered read rate of the fixed-rate phase, 1/s
	limit    time.Duration // p99 read latency limit of the sustained-rate search
	saturate float64       // offered rate far above capacity, for the reply-rate ceiling, 1/s
}

// k is the neighbor count of every query.
const k = 10

// corpusSeed seeds every workload's corpus and index build. The corpus is
// fixed, like the paper's data sets; the run seed draws the query pool
// from the held-out objects, the traffic and the LSM write script. Per-seed
// corpora would make the seed-to-seed spread mostly a spread of corpora.
const corpusSeed = 1

// heldOutPerQuery is how many held-out objects there are per pool query.
const heldOutPerQuery = 4

// corpus is one workload's generated objects from a single generator call:
// the served base corpus, then the held-out objects, then fresh objects for
// the LSM write script. The daemons regenerate the base themselves from the
// manifest's (dataset, seed, n), a prefix of the same call.
type corpus[T any] struct {
	all     []T
	n       int
	held    int
	queries []T // the query pool: held-out objects drawn by the run seed
}

func (c *corpus[T]) base() []T  { return c.all[:c.n] }
func (c *corpus[T]) pool() []T  { return c.queries }
func (c *corpus[T]) fresh() []T { return c.all[c.n+c.held:] }

// newCorpus generates the corpus and draws a pool of q held-out objects
// with the run seed.
func newCorpus[T any](gen func(seed int64, total int) []T, n, q, fresh int, seed int64) *corpus[T] {
	held := heldOutPerQuery * q
	c := &corpus[T]{all: gen(corpusSeed, n+held+fresh), n: n, held: held}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(held)[:q] {
		c.queries = append(c.queries, c.all[n+i])
	}
	return c
}

// bench is one workload over one object type: how to generate, build,
// save and serve it, and what its traffic looks like.
type bench[T any] struct {
	spec
	dataset string // manifest generator name, e.g. "sift"
	gen     func(seed int64, total int) []T
	sp      space.Space[T]
	n, q    int
	pivots  int // pivot count, for the query-order rung of indexes that keep theirs private
	shards  int // server processes; >1 puts a permrouter in front
	build   func(sp space.Space[T], data []T, seed int64) (index.Index[T], error)
	encode  func(T) []byte
	decode  func([]byte) (T, error)
	// override, when set, rides on one read in ten as per-request params.
	override map[string]float64
	// zipf draws reads from the pool by Zipfian popularity instead of
	// uniformly.
	zipf bool
	// graph and graphEf configure the SW graph reference of the traced
	// pass.
	graph   knngraph.Options
	graphEf int

	d *deployment[T] // the last set-up
}

// deployment is one set-up of a bench: its corpus, the index files and the
// daemons serving them.
type deployment[T any] struct {
	c       *corpus[T]
	dirs    []string   // one index directory per server
	ids     [][]uint32 // per server: shard-local to global ids; nil when unsharded
	servers []*daemon
	router  *daemon // nil when reads go straight to the single server
}

// stages are the set-up steps' wall times, in seconds.
type stages struct {
	gen, build, save, serveBoot, routerBoot, total float64
}

// name is the served index name.
func (b *bench[T]) indexName() string { return b.spec.name }

// setup generates the corpus, builds, saves and serves it under dir. The
// router is booted when the workload is sharded or withRouter is set.
func (b *bench[T]) setup(ctx context.Context, e *env, dir string, withRouter bool) (stages, error) {
	var st stages
	t0 := time.Now()
	c := newCorpus(b.gen, b.n, b.q, replayOps(e.seconds), e.seed)
	st.gen = time.Since(t0).Seconds()

	t1 := time.Now()
	d := &deployment[T]{c: c}
	b.d = d
	var built []index.Index[T]
	subsets := [][]T{c.base()}
	if b.shards > 1 {
		ids, err := shard.IDs(shard.Hash, b.n, b.shards)
		if err != nil {
			return st, err
		}
		d.ids = ids
		subsets = subsets[:0]
		for _, s := range ids {
			subsets = append(subsets, shard.Subset(c.base(), s))
		}
	}
	for _, sub := range subsets {
		idx, err := b.build(b.sp, sub, corpusSeed)
		if err != nil {
			return st, fmt.Errorf("building %s: %w", b.spec.name, err)
		}
		built = append(built, idx)
	}
	st.build = time.Since(t1).Seconds()

	t2 := time.Now()
	for s, idx := range built {
		man := server.Manifest{Dataset: b.dataset, Seed: corpusSeed, N: b.n}
		if b.shards > 1 {
			man.Shard = &shard.Info{Set: b.spec.name, Partitioner: shard.Hash, Shards: b.shards, Index: s}
		}
		sd := filepath.Join(dir, fmt.Sprintf("shard%d", s))
		if err := saveIndex(sd, b.indexName(), idx, man); err != nil {
			return st, err
		}
		d.dirs = append(d.dirs, sd)
	}
	st.save = time.Since(t2).Seconds()

	t3 := time.Now()
	var env []string
	if b.shards > 1 {
		// One serving process per core.
		env = []string{"GOMAXPROCS=1"}
	}
	for s, sd := range d.dirs {
		srv, err := startDaemon(fmt.Sprintf("permserve-%d", s), filepath.Join(e.bin, "permserve"),
			sd+".log", env, "-dir", sd, "-addr", "127.0.0.1:0")
		if err != nil {
			return st, err
		}
		d.servers = append(d.servers, srv)
	}
	for _, srv := range d.servers {
		if err := srv.waitHealthy(ctx); err != nil {
			return st, err
		}
	}
	st.serveBoot = time.Since(t3).Seconds()

	if b.shards > 1 || withRouter {
		t4 := time.Now()
		urls := make([]string, len(d.servers))
		for i, srv := range d.servers {
			urls[i] = srv.url
		}
		rt, err := startDaemon("permrouter", filepath.Join(e.bin, "permrouter"), filepath.Join(dir, "router.log"), nil,
			"-shards", strings.Join(urls, ","), "-addr", "127.0.0.1:0")
		if err != nil {
			return st, err
		}
		d.router = rt
		if err := rt.waitHealthy(ctx); err != nil {
			return st, err
		}
		st.routerBoot = time.Since(t4).Seconds()
	}
	st.total = time.Since(t0).Seconds()
	return st, nil
}

// stop stops the last set-up's daemons.
func (b *bench[T]) stop() {
	if b.d == nil {
		return
	}
	if b.d.router != nil {
		b.d.router.stop()
	}
	for _, s := range b.d.servers {
		s.stop()
	}
}

// searchURL is where the workload's reads go: the router when sharded,
// otherwise the single server.
func (b *bench[T]) searchURL() string {
	base := b.d.servers[0].url
	if b.shards > 1 {
		base = b.d.router.url
	}
	return base + "/v1/indexes/" + b.indexName() + "/search"
}

// serving lists the processes whose memory counts as serving memory.
func (b *bench[T]) serving() []*daemon {
	ds := append([]*daemon(nil), b.d.servers...)
	if b.shards > 1 {
		ds = append(ds, b.d.router)
	}
	return ds
}

// loadIndexes loads every server's index file back in process, over the
// same corpus subset the server serves.
func (b *bench[T]) loadIndexes() ([]index.Index[T], error) {
	var out []index.Index[T]
	for s, dir := range b.d.dirs {
		data := b.d.c.base()
		if b.d.ids != nil {
			data = shard.Subset(data, b.d.ids[s])
		}
		idx, err := persist.LoadFile(filepath.Join(dir, b.indexName()+persist.Ext), b.sp, data)
		if err != nil {
			return nil, err
		}
		out = append(out, idx)
	}
	return out, nil
}

// wire returns objs as the server sees them (encoded, then decoded the way
// the server decodes a query) and their encodings.
func (b *bench[T]) wire(objs []T) ([]T, [][]byte, error) {
	dec := make([]T, len(objs))
	enc := make([][]byte, len(objs))
	for i, o := range objs {
		enc[i] = b.encode(o)
		v, err := b.decode(enc[i])
		if err != nil {
			return nil, nil, err
		}
		dec[i] = v
	}
	return dec, enc, nil
}

// searchBody is one search request body.
func searchBody(query []byte, params map[string]float64) []byte {
	blob, err := json.Marshal(struct {
		Query  json.RawMessage    `json:"query"`
		K      int                `json:"k"`
		Params map[string]float64 `json:"params,omitempty"`
	}{query, k, params})
	if err != nil {
		panic(err) // raw JSON from encode and a float map always marshal
	}
	return blob
}

// Object encodings, matching the server's query decoders.

func encodeDense(v []float32) []byte {
	blob, _ := json.Marshal(v) // a float32 slice always marshals
	return blob
}

func decodeDense(dim int) func([]byte) ([]float32, error) {
	return func(raw []byte) ([]float32, error) {
		var v []float32
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		if len(v) != dim {
			return nil, fmt.Errorf("vector has %d dimensions, want %d", len(v), dim)
		}
		return v, nil
	}
}

func encodeHistogram(h space.Histogram) []byte {
	blob, _ := json.Marshal(h.P) // a float32 slice always marshals
	return blob
}

func decodeHistogram(bins int) func([]byte) (space.Histogram, error) {
	return func(raw []byte) (space.Histogram, error) {
		var v []float32
		if err := json.Unmarshal(raw, &v); err != nil {
			return space.Histogram{}, err
		}
		if len(v) != bins {
			return space.Histogram{}, fmt.Errorf("histogram has %d bins, want %d", len(v), bins)
		}
		return space.NewHistogram(v), nil
	}
}

const wikiTopics = 128

// workloads are the benchmark's workloads by name.
func workloads() map[string]workload {
	return map[string]workload{
		"sift-napp": &bench[[]float32]{
			spec:    spec{name: "sift-napp", readRate: 250, limit: 50 * time.Millisecond, saturate: 2000},
			dataset: "sift", gen: func(seed int64, total int) [][]float32 { return dataset.SIFT(seed, total) }, sp: space.L2{}, n: 100000, q: 1024, pivots: 256, shards: 1,
			build: func(sp space.Space[[]float32], data [][]float32, seed int64) (index.Index[[]float32], error) {
				return core.NewNAPP(sp, data, core.NAPPOptions{
					NumPivots: 256, NumPivotIndex: 16, NumPivotSearch: 16, MinShared: 1, MaxCandidates: 2000, Seed: seed,
				})
			},
			encode: encodeDense, decode: decodeDense(128),
			graph: knngraph.Options{NN: 16, InitAttempts: 4, Workers: 2}, graphEf: 100,
		},
		"wiki-js-router": &bench[space.Histogram]{
			spec:    spec{name: "wiki-js-router", readRate: 150, limit: 60 * time.Millisecond, saturate: 800},
			dataset: fmt.Sprintf("wiki-%d", wikiTopics),
			gen: func(seed int64, total int) []space.Histogram {
				return dataset.WikiLDA(seed, total, wikiTopics)
			},
			sp: space.JSDivergence{}, n: 20000, q: 512, shards: 2,
			build: func(sp space.Space[space.Histogram], data []space.Histogram, seed int64) (index.Index[space.Histogram], error) {
				return core.NewBruteForceFilter(sp, data, core.BruteForceOptions{NumPivots: 64, Gamma: 0.1, Seed: seed})
			},
			encode: encodeHistogram, decode: decodeHistogram(wikiTopics),
			override: map[string]float64{"gamma": 0.15},
			zipf:     true,
			graph:    knngraph.Options{NN: 8, InitAttempts: 2, Workers: 2}, graphEf: 100,
		},
	}
}

// removeDir deletes a set-up's files once its daemons are stopped.
func removeDir(dir string) { _ = os.RemoveAll(dir) }
