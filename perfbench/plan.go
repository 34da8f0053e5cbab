package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/router"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/synth"
	"repro/internal/topk"
)

// workload is one benchmark workload.
type workload interface {
	traffic() spec
	// setup generates the corpus, builds, saves and serves it under dir.
	setup(ctx context.Context, e *env, dir string, withRouter bool) (stages, error)
	// stop stops the last set-up's daemons.
	stop()
	// plan computes the references every served answer is checked
	// against and the exact ground truth of recall, outside setup_s.
	plan(ctx context.Context, e *env) (*plan, error)
	// layers runs the traced pass: every rung of the layer ladder for the
	// query pool, recorded as spans.
	layers(ctx context.Context, e *env, p *plan, tr *tracer) (map[string]float64, int, error)
}

func (b *bench[T]) traffic() spec { return b.spec }

// plan is what the load generator sends and how it checks the replies.
type plan struct {
	url     string   // search endpoint
	reads   [][]byte // read request bodies
	pick    func() int
	check   func(req int, got []hit) error
	serving []*daemon         // processes whose peak memory is reported
	truth   [][]topk.Neighbor // exact answers of the pool queries over the base corpus
	// final runs after the load: it sends every pool query once, untimed,
	// checks each answer, and returns their mean recall@10 against exact
	// answers.
	final func(ctx context.Context) (float64, error)
}

// mismatchError marks an answer that differs from its reference.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return e.msg }

func isMismatch(err error) bool {
	var m *mismatchError
	return errors.As(err, &m)
}

// exactTruth answers every query exactly by sequential scan, on two
// goroutines.
func exactTruth[T any](sp space.Space[T], data, queries []T) [][]topk.Neighbor {
	ss := seqscan.New(sp, data)
	out := make([][]topk.Neighbor, len(queries))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(queries); i += 2 {
				out[i] = ss.Search(queries[i], k)
			}
		}()
	}
	wg.Wait()
	return out
}

// reference is the in-process index the served answers must equal: the
// single loaded index, or router.Local over the loaded shards.
func (b *bench[T]) reference(idxs []index.Index[T]) (index.Index[T], error) {
	if b.shards == 1 {
		return idxs[0], nil
	}
	shards := make([]router.LocalShard[T], len(idxs))
	for s, idx := range idxs {
		shards[s] = router.LocalShard[T]{Index: idx, IDs: b.d.ids[s]}
	}
	return router.NewLocal(shards, engine.NewPool(1))
}

func (b *bench[T]) plan(ctx context.Context, e *env) (*plan, error) {
	c := b.d.c
	pool, enc, err := b.wire(c.pool())
	if err != nil {
		return nil, err
	}
	idxs, err := b.loadIndexes()
	if err != nil {
		return nil, err
	}
	ref, err := b.reference(idxs)
	if err != nil {
		return nil, err
	}
	p := &plan{url: b.searchURL(), serving: b.serving(), truth: exactTruth(b.sp, c.base(), pool)}
	rng := rand.New(rand.NewSource(e.seed))

	// Read request r = query*variants + v; v = 1 carries the override.
	variants := 1
	if b.override != nil {
		variants = 2
	}
	want := make([][]topk.Neighbor, len(pool)*variants)
	p.reads = make([][]byte, len(want))
	for v := 0; v < variants; v++ {
		var params map[string]float64
		var restore []experiments.Params
		if v == 1 {
			params = b.override
			for _, idx := range idxs {
				prev, err := experiments.ApplyParams(idx, experiments.Params(params))
				if err != nil {
					return nil, err
				}
				restore = append(restore, prev)
			}
		}
		for i, q := range pool {
			r := i*variants + v
			want[r] = ref.Search(q, k)
			p.reads[r] = searchBody(enc[i], params)
		}
		for s, prev := range restore {
			if _, err := experiments.ApplyParams(idxs[s], prev); err != nil {
				return nil, err
			}
		}
	}
	draw := func() int { return rng.Intn(len(pool)) }
	if b.zipf {
		z := synth.NewZipf(rng, 1.1, uint64(len(pool)))
		draw = func() int { return int(z.Sample()) }
	}
	p.pick = func() int {
		r := draw() * variants
		if variants == 2 && rng.Intn(10) == 0 {
			r++
		}
		return r
	}
	p.check = func(r int, got []hit) error {
		if !sameAnswer(got, want[r]) {
			return &mismatchError{fmt.Sprintf("read %d: served answer differs from the in-process reference", r)}
		}
		return nil
	}
	p.final = func(ctx context.Context) (float64, error) {
		total := 0.0
		for i := range pool {
			r := i * variants
			var rep searchReply
			if err := post(ctx, control, p.url, p.reads[r], &rep); err != nil {
				return 0, err
			}
			if err := p.check(r, rep.Results); err != nil {
				return 0, err
			}
			total += recallAt(want[r], p.truth[i])
		}
		return total / float64(len(pool)), nil
	}
	return p, nil
}

// The write script the traced pass replays through the LSM layer.

type writeKind uint8

const (
	addOp writeKind = iota
	deleteOp
)

// replayRate is the write script's length per measured second: four adds
// for every delete, enough to seal several tiers and finish a compaction
// (see README.md).
const replayRate = 360

// replayOps is the length of the write script of a run of seconds.
func replayOps(seconds float64) int { return int(replayRate*seconds) + 1 }

// writeOp is one scripted write.
type writeOp struct {
	kind writeKind
	obj  int    // add: index into the fresh objects; the add's ordinal
	id   uint32 // delete: the target id
}

// newWriteScript draws count ops: four adds of fresh objects per delete
// of a live id (three base ids for every added one). Ids are predictable
// because the writes are applied in order: add j gets id n+j.
func newWriteScript(seed int64, n, count, fresh int) []writeOp {
	r := rand.New(rand.NewSource(seed))
	liveBase := make([]uint32, n)
	for i := range liveBase {
		liveBase[i] = uint32(i)
	}
	var liveAdded []uint32
	take := func(ids *[]uint32) uint32 {
		s := *ids
		j := r.Intn(len(s))
		id := s[j]
		s[j] = s[len(s)-1]
		*ids = s[:len(s)-1]
		return id
	}
	ops := make([]writeOp, 0, count)
	adds := 0
	for len(ops) < count {
		switch {
		case len(ops)%5 == 4 && len(liveAdded) > 0 && r.Intn(4) == 0:
			ops = append(ops, writeOp{kind: deleteOp, id: take(&liveAdded)})
		case len(ops)%5 == 4 || adds == fresh:
			ops = append(ops, writeOp{kind: deleteOp, id: take(&liveBase)})
		default:
			ops = append(ops, writeOp{kind: addOp, obj: adds})
			liveAdded = append(liveAdded, uint32(n+adds))
			adds++
		}
	}
	return ops
}
