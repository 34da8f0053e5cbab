package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knngraph"
	"repro/internal/space"
	"repro/internal/vptree"
)

func TestParseParams(t *testing.T) {
	p, err := ParseParams("att=2,ef=20")
	if err != nil {
		t.Fatal(err)
	}
	if p["att"] != 2 || p["ef"] != 20 || len(p) != 2 {
		t.Fatalf("parsed %v", p)
	}
	if p, err = ParseParams("  "); err != nil || len(p) != 0 {
		t.Fatalf("blank input: %v, %v", p, err)
	}
	for _, bad := range []string{"gamma", "=1", "gamma=x", "a=1,a=2", "a=1,,b=2"} {
		if _, err := ParseParams(bad); err == nil {
			t.Errorf("ParseParams(%q) succeeded", bad)
		}
	}
	if got := (Params{"ef": 20, "att": 2}).String(); got != "att=2,ef=20" {
		t.Fatalf("String() = %q", got)
	}
}

func TestApplyParamsSetAndRestore(t *testing.T) {
	db := dataset.SIFT(3, 120)
	na, err := core.NewNAPP[[]float32](space.L2{}, db, core.NAPPOptions{
		NumPivots: 16, NumPivotIndex: 8, MinShared: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := ApplyParams[[]float32](na, Params{"t": 3})
	if err != nil {
		t.Fatal(err)
	}
	if na.Options().MinShared != 3 {
		t.Fatalf("MinShared = %d after t=3", na.Options().MinShared)
	}
	if prev["t"] != 1 {
		t.Fatalf("prev = %v, want t=1", prev)
	}
	if _, err := ApplyParams[[]float32](na, prev); err != nil {
		t.Fatal(err)
	}
	if na.Options().MinShared != 1 {
		t.Fatalf("MinShared = %d after restore", na.Options().MinShared)
	}

	g, err := knngraph.NewSW[[]float32](space.L2{}, db, knngraph.Options{NN: 4, Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyParams[[]float32](g, Params{"att": 5, "ef": 33}); err != nil {
		t.Fatal(err)
	}
	if att, ef := g.SearchParams(); att != 5 || ef != 33 {
		t.Fatalf("SearchParams = (%d, %d)", att, ef)
	}
}

// TestApplyParamsRejectsConflictsAndBadValues: alias pairs writing one
// knob, out-of-range values (which the underlying setters would silently
// ignore), and non-integral integer knobs all fail up front, leaving the
// index untouched — a serving request must never get a 200 for a setting
// that was not actually applied.
func TestApplyParamsRejectsConflictsAndBadValues(t *testing.T) {
	db := dataset.SIFT(3, 120)
	g, err := knngraph.NewSW[[]float32](space.L2{}, db, knngraph.Options{NN: 4, InitAttempts: 1, Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	attBefore, efBefore := g.SearchParams()
	for name, p := range map[string]Params{
		"alias pair":     {"att": 2, "attempts": 8},
		"negative ef":    {"ef": -4},
		"zero att":       {"att": 0},
		"fractional ef":  {"ef": 2.5},
		"mixed good/bad": {"att": 2, "ef": -1},
		"infinite ef":    {"ef": math.Inf(1)},
		"NaN att":        {"att": math.NaN()},
		"ef over int32":  {"ef": math.MaxInt32 + 1},
		"ef 1e300":       {"ef": 1e300},
	} {
		if _, err := ApplyParams[[]float32](g, p); err == nil {
			t.Errorf("%s: ApplyParams(%v) succeeded", name, p)
		}
		if att, ef := g.SearchParams(); att != attBefore || ef != efBefore {
			t.Fatalf("%s: knobs modified to (%d, %d) despite failed apply", name, att, ef)
		}
	}

	bf, err := core.NewBruteForceFilter[[]float32](space.L2{}, db, core.BruteForceOptions{NumPivots: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, gamma := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := ApplyParams[[]float32](bf, Params{"gamma": gamma}); err == nil {
			t.Errorf("gamma=%g accepted (the setter would silently ignore it)", gamma)
		}
	}
	if _, err := ApplyParams[[]float32](bf, Params{"gamma": 1e300}); err != nil {
		t.Errorf("gamma=1e300 (finite; searches every candidate) rejected: %v", err)
	}

	na, err := core.NewNAPP[[]float32](space.L2{}, db, core.NAPPOptions{NumPivots: 16, NumPivotIndex: 4, MinShared: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, minShared := range []float64{1e300, math.Inf(1), math.MaxInt32 + 1} {
		if _, err := ApplyParams[[]float32](na, Params{"t": minShared}); err == nil {
			t.Errorf("t=%g accepted (int conversion wraps; SetMinShared would ignore it)", minShared)
		}
		if got := na.Options().MinShared; got != 2 {
			t.Fatalf("t=%g: MinShared changed to %d despite failed apply", minShared, got)
		}
	}
	if _, err := ApplyParams[[]float32](na, Params{"t": math.MaxInt32}); err != nil {
		t.Errorf("t=MaxInt32 rejected: %v", err)
	}
}

// TestApplyParamsAlphaRestoresBothSides: the composite vptree "alpha" knob
// writes both pruning stretch factors; its recorded prev must restore an
// asymmetric tree exactly, not collapse AlphaRight onto the old AlphaLeft.
func TestApplyParamsAlphaRestoresBothSides(t *testing.T) {
	db := dataset.SIFT(3, 120)
	vt, err := vptree.New[[]float32](space.L2{}, db, vptree.Options{AlphaLeft: 1, AlphaRight: 1.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := ApplyParams[[]float32](vt, Params{"alpha": 2})
	if err != nil {
		t.Fatal(err)
	}
	if l, r := vt.Alpha(); l != 2 || r != 2 {
		t.Fatalf("alpha=2 set (%g, %g)", l, r)
	}
	if _, err := ApplyParams[[]float32](vt, prev); err != nil {
		t.Fatalf("restoring %v: %v", prev, err)
	}
	if l, r := vt.Alpha(); l != 1 || r != 1.5 {
		t.Fatalf("restore left (%g, %g), want (1, 1.5)", l, r)
	}
	// Both alpha and one of its sides in a single request is ambiguous.
	if _, err := ApplyParams[[]float32](vt, Params{"alpha": 2, "alpharight": 3}); err == nil {
		t.Error("alpha together with alpharight accepted")
	}
	// The sides alone are two independent knobs.
	if _, err := ApplyParams[[]float32](vt, Params{"alphaleft": 3, "alpharight": 4}); err != nil {
		t.Fatal(err)
	}
	if l, r := vt.Alpha(); l != 3 || r != 4 {
		t.Fatalf("per-side set (%g, %g), want (3, 4)", l, r)
	}
}

func TestApplyParamsUnknownKeyLeavesIndexUntouched(t *testing.T) {
	db := dataset.SIFT(3, 60)
	bf, err := core.NewBruteForceFilter[[]float32](space.L2{}, db, core.BruteForceOptions{NumPivots: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := bf.Gamma()
	if _, err := ApplyParams[[]float32](bf, Params{"gamma": 0.5, "ef": 7}); err == nil {
		t.Fatal("unknown key accepted")
	}
	if bf.Gamma() != before {
		t.Fatalf("gamma modified (%g -> %g) despite failed apply", before, bf.Gamma())
	}
	// Kinds without knobs reject any param.
	pp, err := core.NewPPIndex[[]float32](space.L2{}, db, core.PPIndexOptions{NumPivots: 8, PrefixLen: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyParams[[]float32](pp, Params{"gamma": 0.5}); err == nil {
		t.Fatal("pp-index accepted a gamma param")
	}
}
