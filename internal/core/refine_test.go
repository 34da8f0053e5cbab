package core_test

import (
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/topk"
)

// fullDistances hides space.L2's DistanceBounded, so the refine stage runs
// every distance to the end.
type fullDistances struct{ space.Space[[]float32] }

// TestBoundedRefineMatchesFullDistances checks, for every core kind, that
// refining with the early-abandoning L2 distance returns exactly the
// answers of full distances, and that it does abandon some of them.
func TestBoundedRefineMatchesFullDistances(t *testing.T) {
	queries, bounded := kindsOver(t, space.L2{})
	_, full := kindsOver(t, fullDistances{space.L2{}})
	var abandoned int64
	for i, kc := range bounded {
		s := kc.index.(index.SearcherProvider[[]float32]).NewSearcher()
		var trace obs.QueryTrace
		s.(obs.Traceable).SetTrace(&trace)
		for _, k := range []int{1, 10, 50} {
			for qi, q := range queries {
				trace.Reset()
				got := s.SearchAppend([]topk.Neighbor(nil), q, k)
				if want := full[i].index.Search(q, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d query %d: bounded refine %v, full distances %v", kc.kind, k, qi, got, want)
				}
				if trace.RefineAbandoned > trace.RefineDistances {
					t.Fatalf("%s: %d abandoned of %d distances", kc.kind, trace.RefineAbandoned, trace.RefineDistances)
				}
				abandoned += trace.RefineAbandoned
			}
		}
	}
	if abandoned == 0 {
		t.Fatal("no refine distance was abandoned")
	}
}
