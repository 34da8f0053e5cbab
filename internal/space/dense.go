package space

import (
	"math"

	"repro/internal/vecmath"
)

// L2 is the Euclidean metric over dense float32 vectors. It is the distance
// used for the CoPhIR and SIFT experiments in the paper.
type L2 struct{}

// Distance returns the Euclidean distance between data and query.
func (L2) Distance(data, query []float32) float64 { return vecmath.L2(data, query) }

// DistanceBounded implements Bounded with vecmath.L2SqrBounded.
func (L2) DistanceBounded(data, query []float32, bound float64) (float64, bool) {
	sq, ok := vecmath.L2SqrBounded(data, query, bound*bound)
	if d := math.Sqrt(sq); ok || d > bound {
		return d, ok
	}
	// bound*bound rounded below the true square, so the partial sum does
	// not prove the distance exceeds bound: finish it.
	return vecmath.L2(data, query), true
}

// Name implements Space.
func (L2) Name() string { return "l2" }

// Properties implements Space: L2 is a metric.
func (L2) Properties() Properties { return Properties{Metric: true, Symmetric: true} }

// L2F32 is the Euclidean metric computed with float32 element differences
// (vecmath.L2SqrF32): one rounding per element instead of two float64
// conversions, worth ~20% on SIFT-width vectors. Distances agree with L2 to
// within ~n*2^-23 relative error but are not bit-identical, so this is an
// opt-in space with its own name — indexes persisted under "l2" keep their
// byte-stable distances, and switching a build to L2F32 is an explicit
// decision recorded in the codec header.
type L2F32 struct{}

// Distance returns the Euclidean distance between data and query.
func (L2F32) Distance(data, query []float32) float64 {
	return math.Sqrt(vecmath.L2SqrF32(data, query))
}

// Name implements Space.
func (L2F32) Name() string { return "l2-f32" }

// Properties implements Space: L2 is a metric.
func (L2F32) Properties() Properties { return Properties{Metric: true, Symmetric: true} }

// L1 is the Manhattan metric over dense float32 vectors. The paper uses it to
// cross-check the NAPP implementation against Chávez et al.'s published
// speed-ups on normalized CoPhIR descriptors.
type L1 struct{}

// Distance returns the Manhattan distance between data and query.
func (L1) Distance(data, query []float32) float64 { return vecmath.L1(data, query) }

// Name implements Space.
func (L1) Name() string { return "l1" }

// Properties implements Space: L1 is a metric.
func (L1) Properties() Properties { return Properties{Metric: true, Symmetric: true} }
