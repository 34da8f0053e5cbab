package core

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/permutation"
	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// DistVecFilter is the ablation counterpart of BruteForceFilter: instead of
// converting the vector of pivot distances into a permutation (rank vector),
// it keeps the raw distances and filters by L2 between distance vectors.
// §2.1 of the paper reports that the rank conversion — despite losing
// information — performs slightly *better*; this index exists so that claim
// can be re-verified (BenchmarkAblation_PermVsDistVec and the corresponding
// test).
type DistVecFilter[T any] = scanFilter[T, *distCodec[T]]

// NewDistVecFilter samples pivots and stores raw pivot-distance vectors.
// The options are shared with BruteForceFilter; Dist and UseHeap are
// ignored (the filter always compares by L2 between distance vectors).
func NewDistVecFilter[T any](sp space.Space[T], data []T, opts BruteForceOptions) (*DistVecFilter[T], error) {
	opts.defaults(len(data))
	return newScanFilter(sp, data, &distCodec[T]{opts: opts})
}

// LoadDistVecFilter reads a filter saved by Save over the same data.
func LoadDistVecFilter[T any](cr *codec.Reader, sp space.Space[T], data []T) (*DistVecFilter[T], error) {
	return loadScanFilter(cr, sp, data, &distCodec[T]{})
}

// distCodec stores raw pivot-distance vectors (float32) compared by squared
// L2.
type distCodec[T any] struct {
	opts BruteForceOptions
	vecs []float32 // flattened n x m raw distances
}

func (c *distCodec[T]) kind() string           { return codec.KindDistVec }
func (c *distCodec[T]) sampling() (int, int64) { return c.opts.NumPivots, c.opts.Seed }
func (c *distCodec[T]) gamma() *float64        { return &c.opts.Gamma }
func (c *distCodec[T]) useHeap() bool          { return false }
func (c *distCodec[T]) bytes() int64           { return int64(len(c.vecs)) * 4 }

func (c *distCodec[T]) encodeRows(pv *permutation.Pivots[T], data []T) {
	m := pv.M()
	c.vecs = make([]float32, len(data)*m)
	parallelFor(len(data), func(i int) {
		for j, d := range pv.Distances(data[i], nil) {
			c.vecs[i*m+j] = float32(d)
		}
	})
}

func (c *distCodec[T]) encodeQuery(pv *permutation.Pivots[T], q *querySig, query T) {
	q.perm.Dists = pv.Distances(query, q.perm.Dists)
	q.vec = scratch.Grow(q.vec, len(q.perm.Dists))
	for j, d := range q.perm.Dists {
		q.vec[j] = float32(d)
	}
}

func (c *distCodec[T]) scoreRows(q *querySig, lo, hi int, out []topk.Neighbor) {
	m := c.opts.NumPivots
	for i := lo; i < hi; i++ {
		out[i-lo] = topk.Neighbor{ID: uint32(i), Dist: vecmath.L2Sqr(q.vec, c.vecs[i*m:(i+1)*m])}
	}
}

func (c *distCodec[T]) save(cw *codec.Writer) {
	cw.Int(c.opts.NumPivots)
	cw.F64(c.opts.Gamma)
	cw.I64(c.opts.Seed)
	cw.F32s(c.vecs)
}

func (c *distCodec[T]) load(cr *codec.Reader) {
	c.opts.NumPivots = cr.Int()
	c.opts.Gamma = cr.F64()
	c.opts.Seed = cr.I64()
	c.vecs = cr.F32s()
}

func (c *distCodec[T]) check(n int) error {
	if len(c.vecs) != n*c.opts.NumPivots {
		return fmt.Errorf("vecs=%d, want %d x %d", len(c.vecs), n, c.opts.NumPivots)
	}
	return nil
}
