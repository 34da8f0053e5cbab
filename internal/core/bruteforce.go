package core

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/permutation"
	"repro/internal/space"
	"repro/internal/topk"
)

// BruteForceOptions configures NewBruteForceFilter.
type BruteForceOptions struct {
	// NumPivots is the permutation length m. The paper found m = 128
	// to work well for the expensive distances this method targets.
	// Default 128.
	NumPivots int
	// Gamma is the candidate fraction: the filter keeps
	// max(k, Gamma*n) permutation-nearest entries for refinement.
	// Default 0.02.
	Gamma float64
	// Dist selects rho (default) or footrule for the filtering stage.
	Dist PermDist
	// UseHeap switches the candidate-selection strategy from
	// incremental sorting to a bounded priority queue. Only for the
	// ablation of the §2.2 claim that incremental sorting is ~2x
	// faster; leave false otherwise.
	UseHeap bool
	// Seed drives pivot sampling.
	Seed int64
}

func (o *BruteForceOptions) defaults(n int) {
	if o.NumPivots <= 0 {
		o.NumPivots = 128
	}
	o.NumPivots = min(o.NumPivots, n)
	if o.Gamma <= 0 {
		o.Gamma = 0.02
	}
}

// BruteForceFilter implements brute-force searching of permutations (§2.2):
// the filtering stage scans the permutation of every data point, selects the
// gamma-nearest ones by incremental sorting, and refines them with the true
// distance. Simple, database-friendly, and per Figure 4 competitive when the
// distance is expensive (SQFD, normalized Levenshtein).
type BruteForceFilter[T any] = scanFilter[T, *rankCodec[T]]

// NewBruteForceFilter samples pivots and computes the permutation of every
// data point (in parallel).
func NewBruteForceFilter[T any](sp space.Space[T], data []T, opts BruteForceOptions) (*BruteForceFilter[T], error) {
	opts.defaults(len(data))
	if err := opts.Dist.validate(); err != nil {
		return nil, err
	}
	return newScanFilter(sp, data, &rankCodec[T]{opts: opts})
}

// LoadBruteForceFilter reads a filter saved by Save over the same data.
func LoadBruteForceFilter[T any](cr *codec.Reader, sp space.Space[T], data []T) (*BruteForceFilter[T], error) {
	return loadScanFilter(cr, sp, data, &rankCodec[T]{})
}

// rankCodec stores full permutations (32-bit ranks) compared by Spearman's
// rho or the Footrule.
type rankCodec[T any] struct {
	opts  BruteForceOptions
	perms []int32 // flattened n x m
}

func (c *rankCodec[T]) kind() string           { return codec.KindBruteForce }
func (c *rankCodec[T]) sampling() (int, int64) { return c.opts.NumPivots, c.opts.Seed }
func (c *rankCodec[T]) gamma() *float64        { return &c.opts.Gamma }
func (c *rankCodec[T]) useHeap() bool          { return c.opts.UseHeap }
func (c *rankCodec[T]) bytes() int64           { return int64(len(c.perms)) * 4 }

func (c *rankCodec[T]) encodeRows(pv *permutation.Pivots[T], data []T) {
	c.perms = computePermutations(pv, data)
}

func (c *rankCodec[T]) encodeQuery(pv *permutation.Pivots[T], q *querySig, query T) {
	pv.PermutationWith(&q.perm, query)
}

func (c *rankCodec[T]) scoreRows(q *querySig, lo, hi int, out []topk.Neighbor) {
	m, qperm := c.opts.NumPivots, q.perm.Perm
	if c.opts.Dist == FootruleDist {
		for i := lo; i < hi; i++ {
			out[i-lo] = topk.Neighbor{ID: uint32(i), Dist: permutation.Footrule(qperm, c.perms[i*m:(i+1)*m])}
		}
		return
	}
	for i := lo; i < hi; i++ {
		out[i-lo] = topk.Neighbor{ID: uint32(i), Dist: permutation.SpearmanRho(qperm, c.perms[i*m:(i+1)*m])}
	}
}

func (c *rankCodec[T]) save(cw *codec.Writer) {
	cw.Int(c.opts.NumPivots)
	cw.F64(c.opts.Gamma)
	cw.U8(uint8(c.opts.Dist))
	cw.Bool(c.opts.UseHeap)
	cw.I64(c.opts.Seed)
	cw.I32s(c.perms)
}

func (c *rankCodec[T]) load(cr *codec.Reader) {
	c.opts.NumPivots = cr.Int()
	c.opts.Gamma = cr.F64()
	c.opts.Dist = PermDist(cr.U8())
	c.opts.UseHeap = cr.Bool()
	c.opts.Seed = cr.I64()
	c.perms = cr.I32s()
}

func (c *rankCodec[T]) check(n int) error {
	if err := c.opts.Dist.validate(); err != nil {
		return err
	}
	if len(c.perms) != n*c.opts.NumPivots {
		return fmt.Errorf("perms=%d, want %d x %d", len(c.perms), n, c.opts.NumPivots)
	}
	return nil
}

// BinFilterOptions configures NewBinFilter.
type BinFilterOptions struct {
	// NumPivots is the binarized permutation length. Binary sketches
	// carry less information per element, so the paper doubles the
	// length relative to full permutations (e.g. 256 bits in place of
	// 128 ranks, §3.2). Default 256.
	NumPivots int
	// Threshold is the binarization rank threshold b: ranks >= b map to
	// one. Default NumPivots/2, which balances the two symbols.
	Threshold int
	// Gamma is the candidate fraction, as in BruteForceOptions.
	Gamma float64
	// Seed drives pivot sampling.
	Seed int64
}

func (o *BinFilterOptions) defaults(n int) {
	if o.NumPivots <= 0 {
		o.NumPivots = 256
	}
	if o.Threshold <= 0 {
		o.Threshold = o.NumPivots / 2
	}
	if o.NumPivots > n {
		o.NumPivots = n
		if o.Threshold >= o.NumPivots {
			o.Threshold = o.NumPivots / 2
		}
	}
	if o.Gamma <= 0 {
		o.Gamma = 0.02
	}
}

// BinFilter is brute-force filtering over *binarized* permutations: each
// point stores a bit-packed sketch and the filtering stage computes Hamming
// distances with XOR + popcount (§2.2). This is the method that wins the DNA
// experiment (Figure 4f), where 256-bit sketches are 16x smaller than the
// equivalent full permutations.
type BinFilter[T any] = scanFilter[T, *binCodec[T]]

// NewBinFilter samples pivots, computes permutations and binarizes them.
func NewBinFilter[T any](sp space.Space[T], data []T, opts BinFilterOptions) (*BinFilter[T], error) {
	opts.defaults(len(data))
	return newScanFilter(sp, data, &binCodec[T]{opts: opts})
}

// LoadBinFilter reads a binarized filter saved by Save over the same data.
func LoadBinFilter[T any](cr *codec.Reader, sp space.Space[T], data []T) (*BinFilter[T], error) {
	return loadScanFilter(cr, sp, data, &binCodec[T]{})
}

// binCodec stores bit-packed binarized permutations compared by Hamming
// distance.
type binCodec[T any] struct {
	opts  BinFilterOptions
	words int
	bits  []uint64 // flattened n x words
}

func (c *binCodec[T]) kind() string           { return codec.KindBinFilter }
func (c *binCodec[T]) sampling() (int, int64) { return c.opts.NumPivots, c.opts.Seed }
func (c *binCodec[T]) gamma() *float64        { return &c.opts.Gamma }
func (c *binCodec[T]) useHeap() bool          { return false }
func (c *binCodec[T]) bytes() int64           { return int64(len(c.bits)) * 8 }

func (c *binCodec[T]) encodeRows(pv *permutation.Pivots[T], data []T) {
	w := permutation.BinaryWords(c.opts.NumPivots)
	c.words, c.bits = w, make([]uint64, len(data)*w)
	parallelFor(len(data), func(i int) {
		permutation.Binarize(pv.Permutation(data[i], nil), int32(c.opts.Threshold), c.bits[i*w:(i+1)*w])
	})
}

func (c *binCodec[T]) encodeQuery(pv *permutation.Pivots[T], q *querySig, query T) {
	q.words = permutation.Binarize(pv.PermutationWith(&q.perm, query), int32(c.opts.Threshold), q.words)
}

func (c *binCodec[T]) scoreRows(q *querySig, lo, hi int, out []topk.Neighbor) {
	w := c.words
	for i := lo; i < hi; i++ {
		h := permutation.Hamming(q.words, c.bits[i*w:(i+1)*w])
		out[i-lo] = topk.Neighbor{ID: uint32(i), Dist: float64(h)}
	}
}

func (c *binCodec[T]) save(cw *codec.Writer) {
	cw.Int(c.opts.NumPivots)
	cw.Int(c.opts.Threshold)
	cw.F64(c.opts.Gamma)
	cw.I64(c.opts.Seed)
	cw.Int(c.words)
	cw.U64s(c.bits)
}

func (c *binCodec[T]) load(cr *codec.Reader) {
	c.opts.NumPivots = cr.Int()
	c.opts.Threshold = cr.Int()
	c.opts.Gamma = cr.F64()
	c.opts.Seed = cr.I64()
	c.words = cr.Int()
	c.bits = cr.U64s()
}

func (c *binCodec[T]) check(n int) error {
	if c.words != permutation.BinaryWords(c.opts.NumPivots) || len(c.bits) != n*c.words {
		return fmt.Errorf("m=%d, words=%d, bits=%d", c.opts.NumPivots, c.words, len(c.bits))
	}
	return nil
}
