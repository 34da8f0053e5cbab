// Package vecmath provides low-level dense-vector arithmetic used by the
// distance functions in package space.
//
// The paper's C++ implementation uses hand-written SIMD (SSE/AVX) for L2 and
// sparse intersections. Go's standard toolchain exposes no intrinsics, so the
// loops here are 4-way unrolled instead: on modern CPUs the Go compiler turns
// these into reasonably tight scalar code, and the *relative* cost model of
// the paper (L2 cheap, JS-div ~10-20x L2, SQFD ~100x L2) is preserved, which
// is what the reproduced experiments depend on.
package vecmath

import "math"

// L2Sqr returns the squared Euclidean distance between a and b.
// It panics if the slices have different lengths.
func L2Sqr(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// l2Checkpoint is how many dimensions L2SqrBounded accumulates between two
// comparisons of its partial sum against the bound (a multiple of 4).
const l2Checkpoint = 32

// L2SqrBounded is L2Sqr for a caller that only needs the distance when it
// is at most bound: every l2Checkpoint dimensions it gives up, returning
// the partial sum and ok=false, if that sum is strictly greater than bound.
// Its lanes accumulate exactly as in L2Sqr, and adding non-negative terms
// never makes a float sum smaller, so a partial sum never exceeds the full
// one: ok=false proves L2Sqr(a, b) > bound, and ok=true returns L2Sqr(a, b)
// bit for bit. A distance equal to the bound always completes.
// It panics if the slices have different lengths.
func L2SqrBounded(a, b []float32, bound float64) (d float64, ok bool) {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	var s0, s1, s2, s3 float64
	n4 := len(a) &^ 3
	i := 0
	for i < n4 {
		for stop := min(i+l2Checkpoint, n4); i < stop; i += 4 {
			d0 := float64(a[i]) - float64(b[i])
			d1 := float64(a[i+1]) - float64(b[i+1])
			d2 := float64(a[i+2]) - float64(b[i+2])
			d3 := float64(a[i+3]) - float64(b[i+3])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if i < len(a) {
			if p := s0 + s1 + s2 + s3; p > bound {
				return p, false
			}
		}
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += d * d
	}
	return s0 + s1 + s2 + s3, true
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b []float32) float64 {
	return math.Sqrt(L2Sqr(a, b))
}

// L1 returns the Manhattan distance between a and b.
// It panics if the slices have different lengths.
func L1(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += math.Abs(float64(a[i]) - float64(b[i]))
		s1 += math.Abs(float64(a[i+1]) - float64(b[i+1]))
		s2 += math.Abs(float64(a[i+2]) - float64(b[i+2]))
		s3 += math.Abs(float64(a[i+3]) - float64(b[i+3]))
	}
	for ; i < len(a); i++ {
		s0 += math.Abs(float64(a[i]) - float64(b[i]))
	}
	return s0 + s1 + s2 + s3
}

// Dot returns the inner product of a and b.
// It panics if the slices have different lengths.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return s0 + s1 + s2 + s3
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float64 {
	var s float64
	for _, v := range a {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the elements of a.
func Sum(a []float32) float64 {
	var s float64
	for _, v := range a {
		s += float64(v)
	}
	return s
}

// Scale multiplies every element of a by c, in place.
func Scale(a []float32, c float64) {
	for i := range a {
		a[i] = float32(float64(a[i]) * c)
	}
}

// Normalize scales a to unit Euclidean norm in place and returns the original
// norm. A zero vector is left unchanged and 0 is returned.
func Normalize(a []float32) float64 {
	n := Norm(a)
	if n == 0 {
		return 0
	}
	Scale(a, 1/n)
	return n
}

// NormalizeL1 scales a so its elements sum to one (a probability histogram)
// and returns the original sum. A zero vector is left unchanged.
func NormalizeL1(a []float32) float64 {
	s := Sum(a)
	if s == 0 {
		return 0
	}
	Scale(a, 1/s)
	return s
}

// Clone returns a copy of a.
func Clone(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return out
}

// Add stores a+b into dst. All three slices must have the same length.
func Add(dst, a, b []float32) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("vecmath: length mismatch")
	}
	for i := range a {
		dst[i] = a[i] + b[i]
	}
}

// AXPY computes dst += c*a element-wise.
func AXPY(dst []float32, c float64, a []float32) {
	if len(dst) != len(a) {
		panic("vecmath: length mismatch")
	}
	for i := range a {
		dst[i] += float32(c * float64(a[i]))
	}
}

// MinMax returns the smallest and largest element of a.
// It panics on an empty slice.
func MinMax(a []float32) (lo, hi float32) {
	if len(a) == 0 {
		panic("vecmath: empty slice")
	}
	lo, hi = a[0], a[0]
	for _, v := range a[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
