// Package core implements the permutation-based k-NN search methods that are
// the subject of the paper (§2): brute-force filtering of permutations (full
// and binarized), the Permutation Prefix Index (PP-index), the Metric
// Inverted File (MI-file), the Neighborhood APProximation index (NAPP),
// indexing permutations in a VP-tree (Figueroa & Fredriksson), and Fagin et
// al.'s OMEDRANK rank-aggregation baseline.
//
// All methods are filter-and-refine: the filtering stage selects candidate
// identifiers using only precomputed permutation information, and the refine
// stage re-ranks the candidates with the true distance. The number of
// candidates is controlled by a gamma parameter expressed as a fraction of
// the data set size, exactly as in §2.2 of the paper.
//
// The four signature filters (brute-force-filt, -bin, -quant and
// distvec-filt) are one scan → select → refine shell, scanFilter, and differ
// only in the codec that encodes and scores their signatures.
package core

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/permutation"
	"repro/internal/space"
	"repro/internal/topk"
)

// PermDist selects the distance used to compare permutations in the
// filtering stage.
type PermDist int

const (
	// Rho is Spearman's rho (sum of squared rank differences), the most
	// effective choice per §2.1 and the default everywhere.
	Rho PermDist = iota
	// FootruleDist is the Footrule (sum of absolute rank differences).
	FootruleDist
)

// String returns the report name of the permutation distance.
func (d PermDist) String() string {
	switch d {
	case Rho:
		return "spearman-rho"
	case FootruleDist:
		return "footrule"
	default:
		return fmt.Sprintf("PermDist(%d)", int(d))
	}
}

// validate rejects values other than Rho and FootruleDist, which the
// filters would otherwise silently score as rho.
func (d PermDist) validate() error {
	if d != Rho && d != FootruleDist {
		return fmt.Errorf("core: unknown permutation distance %v", d)
	}
	return nil
}

// gammaCount converts a candidate fraction into an absolute candidate count,
// clamped to [k, n] so a query can always be answered. A fraction of 1 or
// more returns n without converting frac*n, which for a huge fraction is
// out of int range and would wrap negative.
func gammaCount(frac float64, n, k int) int {
	if frac >= 1 {
		return n
	}
	return min(max(int(frac*float64(n)), k), n)
}

// refineInto computes true distances from the candidates to the query and
// appends the k nearest, ordered by increasing distance, to dst. Candidate
// ids must be unique. Data points are the left distance argument (left
// queries). The queue is scratch state owned by the caller; refineInto does
// not allocate when dst and the queue have warmed-up capacity.
//
// The queue keeps the canonical k smallest by (distance, id), so the answer
// does not depend on candidate order. That is what lets a space.Bounded
// distance give up on a candidate once it is strictly farther than the
// queue's k-th distance: Push would reject it anyway, so the answer stays
// bit for bit what full distances give.
//
// When tr is non-nil the exact-distance loop is attributed to the refine
// stage and the final ordered copy-out to the merge stage (one time.Now
// pair per stage; no per-candidate bookkeeping, so the traced path stays
// allocation-free). RefineDistances counts every evaluation started,
// RefineAbandoned those given up.
func refineInto[T any](sp space.Space[T], data []T, query T, cands []uint32, k int, q *topk.Queue, dst []topk.Neighbor, tr *obs.QueryTrace) []topk.Neighbor {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	q.Reset(k)
	abandoned := 0
	bs, bounded := sp.(space.Bounded[T])
	for _, id := range cands {
		if bound, full := q.Bound(); bounded && full {
			d, ok := bs.DistanceBounded(data[id], query, bound)
			if !ok {
				abandoned++
				continue
			}
			q.Push(id, d)
			continue
		}
		q.Push(id, sp.Distance(data[id], query))
	}
	if tr != nil {
		tr.RefineDistances += int64(len(cands))
		tr.RefineAbandoned += int64(abandoned)
		obs.AddSince(&tr.RefineNs, t0)
		t0 = time.Now()
	}
	dst = q.AppendResults(dst)
	if tr != nil {
		obs.AddSince(&tr.MergeNs, t0)
	}
	return dst
}

// candidateIDs copies the ids of pre-scored candidates (the output of
// topk.SelectK) into buf, reusing its capacity, for refineInto.
func candidateIDs(buf []uint32, best []topk.Neighbor) []uint32 {
	buf = buf[:0]
	for _, c := range best {
		buf = append(buf, c.ID)
	}
	return buf
}

// searcher adapts a scratch-threaded search function to index.Searcher: it
// owns one scratch state S for its lifetime, giving a single-goroutine
// caller (a batch worker, a serving loop) buffer reuse across queries
// without any pool traffic. The index's own Search/SearchAppend wrap the
// same fn around a pooled state instead.
//
// A warm scratch state is built under one index generation: its arenas are
// sized to the data set and its epoch stamps assume the id space is stable.
// Dynamic indexes (napp_dynamic.go) invalidate that assumption, so a
// searcher minted by a mutable index carries the index's mutation sequence
// number and re-mints its scratch (discarding every warmed buffer) the
// first time it is used after a mutation. That makes a stale searcher
// self-healing instead of an out-of-range or silently-missing-ids hazard;
// the cost is one round of re-warming allocations per mutation, and zero
// extra allocations while the index is unmutated.
//
// A searcher also carries an optional *obs.QueryTrace (set via SetTrace,
// the obs.Traceable interface): when attached, the search fn records the
// per-stage breakdown into it. The trace pointer is owner-managed state
// like the scratch itself — callers holding pooled searchers must SetTrace
// before every query (nil for untraced) so a pointer from a previous query
// never receives writes.
type searcher[T, S any] struct {
	scratch S
	tr      *obs.QueryTrace
	fn      func(s *S, tr *obs.QueryTrace, dst []topk.Neighbor, query T, k int) []topk.Neighbor
	// mutSeq, when non-nil, reads the owning index's mutation sequence
	// number; minted is the value the current scratch was built under.
	mutSeq func() uint64
	minted uint64
}

// SetTrace implements obs.Traceable.
func (w *searcher[T, S]) SetTrace(tr *obs.QueryTrace) { w.tr = tr }

// refresh re-mints the scratch state if the owning index has mutated since
// the scratch was built. Mutation and search may not run concurrently (the
// dynamic-maintenance contract), so reading the sequence here is unsynced.
func (w *searcher[T, S]) refresh() {
	if w.mutSeq == nil {
		return
	}
	if seq := w.mutSeq(); seq != w.minted {
		var zero S
		w.scratch = zero
		w.minted = seq
	}
}

// Search implements index.Searcher.
func (w *searcher[T, S]) Search(query T, k int) []topk.Neighbor {
	w.refresh()
	return w.fn(&w.scratch, w.tr, nil, query, k)
}

// SearchAppend implements index.Searcher.
func (w *searcher[T, S]) SearchAppend(dst []topk.Neighbor, query T, k int) []topk.Neighbor {
	w.refresh()
	return w.fn(&w.scratch, w.tr, dst, query, k)
}

// compile-time interface checks: every core index mints searchers.
var (
	_ index.SearcherProvider[[]float32] = (*BruteForceFilter[[]float32])(nil)
	_ index.SearcherProvider[[]float32] = (*BinFilter[[]float32])(nil)
	_ index.SearcherProvider[[]float32] = (*QuantFilter[[]float32])(nil)
	_ index.SearcherProvider[[]float32] = (*DistVecFilter[[]float32])(nil)
	_ index.SearcherProvider[[]float32] = (*PPIndex[[]float32])(nil)
	_ index.SearcherProvider[[]float32] = (*MIFile[[]float32])(nil)
	_ index.SearcherProvider[[]float32] = (*NAPP[[]float32])(nil)
	_ index.SearcherProvider[[]float32] = (*OMEDRANK[[]float32])(nil)
	_ index.SearcherProvider[[]float32] = (*PermVPTree[[]float32])(nil)
)

// parallelFor runs f(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines (uniform-cost build loops; see engine.Pool.For). Iterations
// must be independent.
func parallelFor(n int, f func(i int)) {
	engine.Pool{}.For(n, f)
}

// computePermutations returns the flattened n x m matrix of permutations of
// every data point, computed in parallel (the paper builds permutation
// indexes with four threads; we use GOMAXPROCS).
func computePermutations[T any](pv *permutation.Pivots[T], data []T) []int32 {
	m := pv.M()
	out := make([]int32, len(data)*m)
	parallelFor(len(data), func(i int) {
		pv.Permutation(data[i], out[i*m:i*m+m])
	})
	return out
}

// computeOrders returns the flattened n x mi matrix holding, for each data
// point, the indices of its mi closest pivots (closest first).
func computeOrders[T any](pv *permutation.Pivots[T], data []T, mi int) []int32 {
	m := pv.M()
	if mi > m {
		mi = m
	}
	out := make([]int32, len(data)*mi)
	parallelFor(len(data), func(i int) {
		var s permutation.Scratch
		copy(out[i*mi:(i+1)*mi], pv.OrderPrefixWith(&s, data[i], mi))
	})
	return out
}
