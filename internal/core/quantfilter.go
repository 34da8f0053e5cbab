package core

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/permutation"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// QuantFilterOptions configures NewQuantFilter.
type QuantFilterOptions struct {
	// NumPivots is the full permutation length m; ranks are quantized to
	// 4 bits relative to m. Default 64.
	NumPivots int
	// PrefixLen is the number of leading pivots kept in the quantized
	// signature. 16 lanes pack into one 64-bit word, so the default of 16
	// makes the filtering scan a single-word kernel per point. Clamped to
	// NumPivots.
	PrefixLen int
	// Gamma is the candidate fraction, as in BruteForceOptions.
	Gamma float64
	// Seed drives pivot sampling.
	Seed int64
}

func (o *QuantFilterOptions) defaults(n int) {
	if o.NumPivots <= 0 {
		o.NumPivots = 64
	}
	o.NumPivots = min(o.NumPivots, n)
	if o.PrefixLen <= 0 {
		o.PrefixLen = 16
	}
	o.PrefixLen = min(o.PrefixLen, o.NumPivots)
	if o.Gamma <= 0 {
		o.Gamma = 0.02
	}
}

// QuantFilter is brute-force filtering over 4-bit quantized permutation
// prefixes: each point stores the nibble-packed quantized ranks of its
// PrefixLen closest-indexed pivots and the filtering stage computes the
// Footrule distance between signatures with the SWAR absolute-difference
// kernel (vecmath.NibbleL1Word), 16 lanes per word. The signature sits
// between the paper's two extremes — full permutations (32 bits per rank,
// exact Footrule) and binarized sketches (1 bit per rank, Hamming): four
// bits per rank preserve enough rank geometry to filter well while the scan
// stays word-wise and cache-linear like the binary one.
type QuantFilter[T any] = scanFilter[T, *quantCodec[T]]

// NewQuantFilter samples pivots, computes permutations and quantizes their
// prefixes.
func NewQuantFilter[T any](sp space.Space[T], data []T, opts QuantFilterOptions) (*QuantFilter[T], error) {
	opts.defaults(len(data))
	return newScanFilter(sp, data, &quantCodec[T]{opts: opts})
}

// LoadQuantFilter reads a quantized-prefix filter saved by Save over the
// same data.
func LoadQuantFilter[T any](cr *codec.Reader, sp space.Space[T], data []T) (*QuantFilter[T], error) {
	return loadScanFilter(cr, sp, data, &quantCodec[T]{})
}

// quantCodec stores nibble-packed quantized permutation prefixes compared
// by their L1 (Footrule) distance.
type quantCodec[T any] struct {
	opts  QuantFilterOptions
	words int
	sigs  []uint64 // flattened n x words
}

func (c *quantCodec[T]) kind() string           { return codec.KindQuantFilter }
func (c *quantCodec[T]) sampling() (int, int64) { return c.opts.NumPivots, c.opts.Seed }
func (c *quantCodec[T]) gamma() *float64        { return &c.opts.Gamma }
func (c *quantCodec[T]) useHeap() bool          { return false }
func (c *quantCodec[T]) bytes() int64           { return int64(len(c.sigs)) * 8 }

func (c *quantCodec[T]) encodeRows(pv *permutation.Pivots[T], data []T) {
	w := permutation.QuantizedWords(c.opts.PrefixLen)
	c.words, c.sigs = w, make([]uint64, len(data)*w)
	parallelFor(len(data), func(i int) {
		permutation.Quantize(pv.Permutation(data[i], nil), c.opts.PrefixLen, c.sigs[i*w:(i+1)*w])
	})
}

func (c *quantCodec[T]) encodeQuery(pv *permutation.Pivots[T], q *querySig, query T) {
	q.words = permutation.Quantize(pv.PermutationWith(&q.perm, query), c.opts.PrefixLen, q.words)
}

func (c *quantCodec[T]) scoreRows(q *querySig, lo, hi int, out []topk.Neighbor) {
	if c.words == 1 {
		// The default signature is a single word; the word kernel in this
		// flat loop, with no row slicing, is what puts the quantized scan
		// ahead of the binary one.
		q0 := q.words[0]
		for i := lo; i < hi; i++ {
			d := vecmath.NibbleL1Word(q0, c.sigs[i])
			out[i-lo] = topk.Neighbor{ID: uint32(i), Dist: float64(d)}
		}
		return
	}
	w := c.words
	for i := lo; i < hi; i++ {
		d := vecmath.NibbleL1(q.words, c.sigs[i*w:(i+1)*w])
		out[i-lo] = topk.Neighbor{ID: uint32(i), Dist: float64(d)}
	}
}

func (c *quantCodec[T]) save(cw *codec.Writer) {
	cw.Int(c.opts.NumPivots)
	cw.Int(c.opts.PrefixLen)
	cw.F64(c.opts.Gamma)
	cw.I64(c.opts.Seed)
	cw.Int(c.words)
	cw.U64s(c.sigs)
}

func (c *quantCodec[T]) load(cr *codec.Reader) {
	c.opts.NumPivots = cr.Int()
	c.opts.PrefixLen = cr.Int()
	c.opts.Gamma = cr.F64()
	c.opts.Seed = cr.I64()
	c.words = cr.Int()
	c.sigs = cr.U64s()
}

func (c *quantCodec[T]) check(n int) error {
	if c.opts.PrefixLen <= 0 || c.opts.PrefixLen > c.opts.NumPivots ||
		c.words != permutation.QuantizedWords(c.opts.PrefixLen) || len(c.sigs) != n*c.words {
		return fmt.Errorf("m=%d, prefix=%d, words=%d, sigs=%d", c.opts.NumPivots, c.opts.PrefixLen, c.words, len(c.sigs))
	}
	return nil
}
