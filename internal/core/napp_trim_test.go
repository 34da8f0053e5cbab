package core

// Differential tests for NAPP's counting-select MaxCandidates trim: its
// answers must be exactly those of the quickselect trim it replaced, which
// survives here as a test-only reference.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/space"
	"repro/internal/topk"
)

// selectKTrim is the former MaxCandidates trim: score each candidate by its
// negated shared count and keep the (Dist, ID)-smallest max with SelectK.
func selectKTrim(cands []uint32, count func(id uint32) uint8, max int) []uint32 {
	sel := make([]topk.Neighbor, 0, len(cands))
	for _, id := range cands {
		sel = append(sel, topk.Neighbor{ID: id, Dist: -float64(count(id))})
	}
	var kept []uint32
	for _, c := range topk.SelectK(sel, max) {
		kept = append(kept, c.ID)
	}
	return kept
}

// refNAPPSearch answers a query the way NAPP did before the counting trim,
// early-abandoning refine and partial pivot order: full pivot order, a
// plain counter array, the SelectK trim and full distances.
func refNAPPSearch[T any](na *NAPP[T], query T, k int) (cands int, res []topk.Neighbor) {
	order := na.pivots.Order(query, nil)[:na.opts.NumPivotSearch]
	counts := make([]uint8, len(na.data))
	var ids []uint32
	for _, p := range order {
		for _, id := range na.postings[p] {
			counts[id]++
			if int(counts[id]) == na.opts.MinShared {
				if _, dead := na.deleted[id]; !dead {
					ids = append(ids, id)
				}
			}
		}
	}
	cands = len(ids)
	if max := na.opts.MaxCandidates; max > 0 && len(ids) > max {
		ids = selectKTrim(ids, func(id uint32) uint8 { return counts[id] }, max)
	}
	q := topk.NewQueue(k)
	for _, id := range ids {
		q.Push(id, na.sp.Distance(na.data[id], query))
	}
	return cands, q.Results()
}

// checkTrimMatchesRef compares Search with the reference over queries at
// each MaxCandidates in maxes, plus, per query, MaxCandidates equal to and
// one above that query's candidate count. It returns how many queries were
// actually trimmed.
func checkTrimMatchesRef[T any](t *testing.T, na *NAPP[T], queries []T, maxes []int) (trimmed int) {
	t.Helper()
	const k = 10
	defer func(m int) { na.opts.MaxCandidates = m }(na.opts.MaxCandidates)
	check := func(qi int, query T) {
		t.Helper()
		n, want := refNAPPSearch(na, query, k)
		if got := na.Search(query, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d, MaxCandidates %d: Search = %v, reference = %v", qi, na.opts.MaxCandidates, got, want)
		}
		if max := na.opts.MaxCandidates; max > 0 && n > max {
			trimmed++
		}
	}
	for qi, query := range queries {
		for _, max := range maxes {
			na.opts.MaxCandidates = max
			check(qi, query)
		}
		na.opts.MaxCandidates = 0
		n, _ := refNAPPSearch(na, query, k)
		for _, max := range []int{n, n + 1} {
			na.opts.MaxCandidates = max
			check(qi, query)
		}
	}
	return trimmed
}

func TestNAPPCountingTrimMatchesSelectK(t *testing.T) {
	sift := dataset.SIFT(3, 1540)
	l2data, l2queries := sift[:1500], sift[1500:]
	// Queries that are data points share every searched pivot with
	// themselves: the top count bucket is occupied.
	l2queries = append(l2queries, l2data[:5]...)
	wiki := dataset.WikiLDA(4, 1030, 16)
	kldata, klqueries := wiki[:1000], wiki[1000:]

	// Few searched pivots make counts 1..ms, so thousands of candidates
	// tie at the cut-off count.
	for _, ms := range []int{2, 4, 16} {
		opts := NAPPOptions{NumPivots: 64, NumPivotIndex: 16, NumPivotSearch: ms, MinShared: 1, Seed: 5}
		na, err := NewNAPP[[]float32](space.L2{}, l2data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := checkTrimMatchesRef(t, na, l2queries, []int{1, 7, 50, 333}); n == 0 {
			t.Fatalf("l2 ms=%d: no query was trimmed", ms)
		}
		kl, err := NewNAPP[space.Histogram](space.KLDivergence{}, kldata, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := checkTrimMatchesRef(t, kl, klqueries, []int{1, 7, 50, 333}); n == 0 {
			t.Fatalf("kl ms=%d: no query was trimmed", ms)
		}
	}
}

func TestNAPPCountingTrimWithTombstones(t *testing.T) {
	sift := dataset.SIFT(8, 1230)
	data, queries := sift[:1200], sift[1200:]
	na, err := NewNAPP[[]float32](space.L2{}, data, NAPPOptions{NumPivots: 64, NumPivotIndex: 16, NumPivotSearch: 4, MinShared: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 300; i++ {
		if err := na.Delete(uint32(r.Intn(len(data)))); err != nil {
			t.Fatal(err)
		}
	}
	queries = append(queries, data[:5]...) // some of them tombstoned
	if n := checkTrimMatchesRef(t, na, queries, []int{1, 7, 50, 333}); n == 0 {
		t.Fatal("no query was trimmed")
	}
}

// TestNAPPCountingTrimSaturatedCounts searches 255 pivots, the cap, with
// data-point queries, so shared counts reach 255, the top byte value.
func TestNAPPCountingTrimSaturatedCounts(t *testing.T) {
	data := dataset.SIFT(11, 400)
	na, err := NewNAPP[[]float32](space.L2{}, data, NAPPOptions{NumPivots: 300, NumPivotIndex: 255, NumPivotSearch: 255, MinShared: 1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if na.opts.NumPivotSearch != 255 {
		t.Fatalf("NumPivotSearch = %d, want 255", na.opts.NumPivotSearch)
	}
	if n := checkTrimMatchesRef(t, na, data[:20], []int{1, 7, 50, 333}); n == 0 {
		t.Fatal("no query was trimmed")
	}
}

// TestTrimSharedMatchesSelectK drives the trim directly over synthetic
// count vectors: every limit from 1 to len-1, counts from narrow ranges
// (nearly everything tied) to the full byte range, ids in random order.
func TestTrimSharedMatchesSelectK(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var ties []uint32
	for _, span := range []int{1, 2, 3, 256} {
		for _, n := range []int{2, 3, 17, 200} {
			ids := make([]uint32, n)
			counts := make([]uint8, n)
			byID := map[uint32]uint8{}
			for i, id := range r.Perm(4 * n)[:n] {
				ids[i] = uint32(id)
				counts[i] = uint8(255 - r.Intn(span))
				byID[ids[i]] = counts[i]
			}
			for limit := 1; limit < n; limit++ {
				want := selectKTrim(ids, func(id uint32) uint8 { return byID[id] }, limit)
				var got []uint32
				got, ties = trimShared(append([]uint32(nil), ids...), counts, limit, ties)
				if !sameIDSet(got, want) {
					t.Fatalf("span %d n %d limit %d: kept %v, want %v", span, n, limit, got, want)
				}
			}
		}
	}
}

func sameIDSet(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	in := map[uint32]bool{}
	for _, id := range a {
		in[id] = true
	}
	for _, id := range b {
		if !in[id] {
			return false
		}
	}
	return len(in) == len(a)
}
