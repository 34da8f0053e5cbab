package core

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/codec"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/permutation"
	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
)

// sigCodec is the per-kind half of a signature-scan filter: the option
// struct, how data points and queries become signatures, what is persisted
// after the pivots, and the block kernel that scores signature rows against
// a query. Everything else (pivots, scratch, selection, refinement, the
// file prologue) is the scanFilter shell's.
//
// The shell reaches the codec through a type parameter, and such calls are
// indirect and never inlined. So the shell calls scoreRows once per block of
// rows, never once per row, and inside it the per-row kernel stays a direct
// call in a concrete loop, which the compiler inlines where the kernel is
// small enough (Hamming).
type sigCodec[T any] interface {
	// kind is the index name and its persisted kind tag.
	kind() string
	// sampling returns the pivot count and the seed the pivots are
	// sampled with.
	sampling() (m int, seed int64)
	// gamma points at the candidate fraction in the codec's options.
	gamma() *float64
	// useHeap reports whether candidates are cut with topk.SelectKHeap
	// (the ablation switch of BruteForceOptions) instead of SelectK.
	useHeap() bool
	// bytes is the size of the stored signatures.
	bytes() int64
	// encodeRows computes the signature of every data point.
	encodeRows(pv *permutation.Pivots[T], data []T)
	// encodeQuery computes the query's signature into q.
	encodeQuery(pv *permutation.Pivots[T], q *querySig, query T)
	// scoreRows sets out[i-lo] to row i and its signature distance from
	// q, for every row i in [lo, hi).
	scoreRows(q *querySig, lo, hi int, out []topk.Neighbor)
	// save writes the options and signatures that follow the pivots;
	// load reads them back and check validates them against n rows once
	// the reader has finished.
	save(cw *codec.Writer)
	load(cr *codec.Reader)
	check(n int) error
}

// querySig is one query's signature scratch. Each codec fills the fields
// its encoding uses.
type querySig struct {
	perm  permutation.Scratch // pivot distances, order and permutation
	words []uint64            // binarized or quantized signature
	vec   []float32           // raw pivot distances
}

// scanScratch is the per-query state of one signature-scan search: the
// query signature, the n-wide candidate scoring slab, and the refine queue.
type scanScratch struct {
	q     querySig
	cands []topk.Neighbor
	ids   []uint32
	queue topk.Queue
}

// scanFilter is brute-force filtering of pivot signatures (§2.2), shared by
// brute-force-filt, -bin, -quant and distvec-filt: encode the query's
// signature, score the signature of every data point, keep the gamma
// nearest, and refine them with the true distance. The kinds differ only in
// their codec C.
type scanFilter[T any, C sigCodec[T]] struct {
	sp      space.Space[T]
	data    []T
	pivots  *permutation.Pivots[T]
	codec   C
	scratch scratch.Pool[scanScratch]
}

// newScanFilter samples the pivots and encodes every data point with c,
// whose options are already defaulted and clamped to the data set.
func newScanFilter[T any, C sigCodec[T]](sp space.Space[T], data []T, c C) (*scanFilter[T, C], error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty data set")
	}
	m, seed := c.sampling()
	pv, err := permutation.Sample(rand.New(rand.NewSource(seed)), sp, data, m)
	if err != nil {
		return nil, fmt.Errorf("core: sampling pivots: %w", err)
	}
	c.encodeRows(pv, data)
	return &scanFilter[T, C]{sp: sp, data: data, pivots: pv, codec: c}, nil
}

// Name implements index.Index.
func (f *scanFilter[T, C]) Name() string { return f.codec.kind() }

// Stats implements index.Sized.
func (f *scanFilter[T, C]) Stats() index.Stats {
	return index.Stats{
		Bytes:          f.codec.bytes(),
		BuildDistances: int64(len(f.data)) * int64(f.pivots.M()),
	}
}

// Pivots exposes the pivot set (used by the projection-quality experiments).
func (f *scanFilter[T, C]) Pivots() *permutation.Pivots[T] { return f.pivots }

// SetGamma adjusts the candidate fraction without rebuilding (gamma only
// affects search). Not safe to call concurrently with Search.
func (f *scanFilter[T, C]) SetGamma(gamma float64) {
	if gamma > 0 {
		*f.codec.gamma() = gamma
	}
}

// Gamma returns the current candidate fraction.
func (f *scanFilter[T, C]) Gamma() float64 { return *f.codec.gamma() }

// RankAll returns every data point ranked by signature distance from the
// query, nearest first. It is the raw filtering stage, exposed for the
// Figure 3 experiments (recall vs. fraction of candidates scanned).
func (f *scanFilter[T, C]) RankAll(query T) []topk.Neighbor {
	var q querySig
	f.codec.encodeQuery(f.pivots, &q, query)
	out := make([]topk.Neighbor, len(f.data))
	f.codec.scoreRows(&q, 0, len(out), out)
	topk.ByDist(out)
	return out
}

// Search implements index.Index.
func (f *scanFilter[T, C]) Search(query T, k int) []topk.Neighbor {
	return f.SearchAppend(nil, query, k)
}

// SearchAppend answers like Search but appends the results to dst; with a
// dst of sufficient capacity a warm call performs zero allocations.
func (f *scanFilter[T, C]) SearchAppend(dst []topk.Neighbor, query T, k int) []topk.Neighbor {
	s := f.scratch.Get()
	defer f.scratch.Put(s)
	return f.search(s, nil, dst, query, k)
}

// NewSearcher implements index.SearcherProvider.
func (f *scanFilter[T, C]) NewSearcher() index.Searcher[T] {
	return &searcher[T, scanScratch]{fn: f.search}
}

// search is the scratch-threaded hot path shared by Search, SearchAppend
// and Searchers. When tr is non-nil the signature scan, candidate
// selection and refinement are attributed to it.
func (f *scanFilter[T, C]) search(s *scanScratch, tr *obs.QueryTrace, dst []topk.Neighbor, query T, k int) []topk.Neighbor {
	if k <= 0 {
		return dst
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	f.codec.encodeQuery(f.pivots, &s.q, query)
	n := len(f.data)
	cands := scratch.Grow(s.cands, n)
	s.cands = cands
	f.codec.scoreRows(&s.q, 0, n, cands)
	if tr != nil {
		tr.FilterCandidates += int64(n)
		obs.AddSince(&tr.FilterNs, t0)
		t0 = time.Now()
	}
	g := gammaCount(*f.codec.gamma(), n, k)
	var best []topk.Neighbor
	if f.codec.useHeap() {
		// Ablation-only path; SelectKHeap allocates its queue per call.
		best = topk.SelectKHeap(cands, g)
	} else {
		best = topk.SelectK(cands, g)
	}
	if tr != nil {
		obs.AddSince(&tr.MergeNs, t0)
	}
	s.ids = candidateIDs(s.ids, best)
	return refineInto(f.sp, f.data, query, s.ids, k, &s.queue, dst, tr)
}

// Save serializes the filter under its codec's kind: the pivot ids, then
// the codec's options and signatures.
func (f *scanFilter[T, C]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, f.codec.kind(), f.sp.Name(), len(f.data))
	if err := savePivots(cw, f.pivots); err != nil {
		return err
	}
	f.codec.save(cw)
	return cw.Close()
}

// loadScanFilter reads a filter saved by Save over the same data, decoding
// the codec's part into c.
func loadScanFilter[T any, C sigCodec[T]](cr *codec.Reader, sp space.Space[T], data []T, c C) (*scanFilter[T, C], error) {
	if err := cr.Expect(c.kind(), sp.Name(), len(data)); err != nil {
		return nil, err
	}
	pv := loadPivots(cr, sp, data)
	c.load(cr)
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	if m, _ := c.sampling(); m != pv.M() || *c.gamma() <= 0 {
		cr.Corruptf("inconsistent %s options (m=%d, pivots=%d, gamma=%g)", c.kind(), m, pv.M(), *c.gamma())
	} else if err := c.check(len(data)); err != nil {
		cr.Corruptf("inconsistent %s sections: %v", c.kind(), err)
	}
	if err := cr.Err(); err != nil {
		return nil, err
	}
	return &scanFilter[T, C]{sp: sp, data: data, pivots: pv, codec: c}, nil
}
