package experiments

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/lsh"
	"repro/internal/vptree"
)

// Params is a set of named query-time parameters ("method params"): the
// knobs that trace a method's recall/efficiency curve without rebuilding the
// index. The textual form — "gamma=0.05", "att=2,ef=20" — is exactly the
// variant label the Figure 4 sweeps print, so a row of experiment output can
// be pasted verbatim into an annbench invocation or a serving request.
//
// Recognized keys per index kind:
//
//	brute-force-filt, brute-force-filt-bin, brute-force-filt-quant,
//	distvec-filt:  gamma
//	napp:       t (alias minshared)
//	vptree:     alpha (sets both pruning stretch factors),
//	            alphaleft, alpharight (one side each)
//	sw-graph, nndescent-graph:  att (alias attempts), ef
//	mplsh:      T (alias probes)
//
// All other kinds have no query-time knobs.
type Params map[string]float64

// ParseParams parses a comma-separated key=value list such as
// "gamma=0.05" or "att=2,ef=20". Keys are not validated here — only
// ApplyParams knows which keys an index kind accepts.
func ParseParams(s string) (Params, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Params{}, nil
	}
	out := Params{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(part, "=")
		k = strings.TrimSpace(k)
		if !ok || k == "" {
			return nil, fmt.Errorf("experiments: malformed param %q (want key=value)", part)
		}
		val, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return nil, fmt.Errorf("experiments: param %q: %v", part, err)
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("experiments: param %q given twice", k)
		}
		out[k] = val
	}
	return out, nil
}

// String renders the params back in ParseParams syntax, keys sorted.
func (p Params) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%g", k, p[k])
	}
	return b.String()
}

// knob is one settable query-time parameter of a concrete index.
type knob struct {
	// groups names the underlying state the knob writes. Two keys of one
	// request whose groups intersect would apply (and restore) in
	// map-iteration order — i.e. nondeterministically — so ApplyParams
	// rejects them. Aliases share a group; vptree's composite "alpha"
	// spans both side groups.
	groups []string
	// integer marks knobs that truncate to int; non-integral values are
	// rejected rather than silently floored, and so are values above
	// math.MaxInt32, whose int conversion could wrap negative.
	integer bool
	// allowZero admits 0 (only mplsh probes); every knob rejects
	// negatives, NaN and infinities. The underlying setters ignore
	// out-of-range values silently, which is fine for internal sweeps but
	// would make a serving request report success while searching under
	// the old setting — so the range is enforced here, before any setter
	// runs.
	allowZero bool
	// get returns the knob's current state keyed by canonical restore
	// params — possibly several (vptree "alpha" reports both sides), so
	// restoring prev is always exact.
	get func() Params
	set func(float64)
}

// knobsOf maps the canonical and alias keys of idx's kind to its knobs, or
// returns nil for kinds without query-time parameters.
func knobsOf[T any](idx index.Index[T]) map[string]knob {
	switch v := any(idx).(type) {
	case *core.BruteForceFilter[T]:
		return gammaKnob(v.Gamma, v.SetGamma)
	case *core.BinFilter[T]:
		return gammaKnob(v.Gamma, v.SetGamma)
	case *core.QuantFilter[T]:
		return gammaKnob(v.Gamma, v.SetGamma)
	case *core.DistVecFilter[T]:
		return gammaKnob(v.Gamma, v.SetGamma)
	case *core.NAPP[T]:
		k := knob{
			groups:  []string{"t"},
			integer: true,
			get:     func() Params { return Params{"t": float64(v.Options().MinShared)} },
			set:     func(x float64) { v.SetMinShared(int(x)) },
		}
		return map[string]knob{"t": k, "minshared": k}
	case *vptree.Tree[T]:
		left := knob{
			groups: []string{"alphaleft"},
			get:    func() Params { l, _ := v.Alpha(); return Params{"alphaleft": l} },
			set:    func(x float64) { v.SetAlpha(x, 0) },
		}
		right := knob{
			groups: []string{"alpharight"},
			get:    func() Params { _, r := v.Alpha(); return Params{"alpharight": r} },
			set:    func(x float64) { v.SetAlpha(0, x) },
		}
		both := knob{
			groups: []string{"alphaleft", "alpharight"},
			get: func() Params {
				l, r := v.Alpha()
				return Params{"alphaleft": l, "alpharight": r}
			},
			set: func(x float64) { v.SetAlpha(x, x) },
		}
		return map[string]knob{"alpha": both, "alphaleft": left, "alpharight": right}
	case *knngraph.Graph[T]:
		att := knob{
			groups:  []string{"att"},
			integer: true,
			get:     func() Params { a, _ := v.SearchParams(); return Params{"att": float64(a)} },
			set:     func(x float64) { v.SetSearchParams(int(x), 0) },
		}
		ef := knob{
			groups:  []string{"ef"},
			integer: true,
			get:     func() Params { _, e := v.SearchParams(); return Params{"ef": float64(e)} },
			set:     func(x float64) { v.SetSearchParams(0, int(x)) },
		}
		return map[string]knob{"att": att, "attempts": att, "ef": ef}
	case *lsh.MPLSH:
		k := knob{
			groups:    []string{"probes"},
			integer:   true,
			allowZero: true,
			get:       func() Params { return Params{"probes": float64(v.Probes())} },
			set:       func(x float64) { v.SetProbes(int(x)) },
		}
		return map[string]knob{"T": k, "probes": k}
	default:
		return nil
	}
}

// gammaKnob is the shared knob map of the four gamma-budgeted filters.
func gammaKnob(get func() float64, set func(float64)) map[string]knob {
	return map[string]knob{"gamma": {
		groups: []string{"gamma"},
		get:    func() Params { return Params{"gamma": get()} },
		set:    set,
	}}
}

// ApplyParams sets the query-time knobs named in p on idx and returns the
// knobs' previous values — keyed by canonical restore params, so passing
// prev back through ApplyParams restores the index exactly. A key the index
// kind does not recognize, a non-finite, out-of-range or non-integral
// value, or two keys writing the same underlying knob (an alias pair, or
// "alpha" with one of its sides) all fail before anything is modified. Like
// the underlying setters, ApplyParams must not run concurrently with Search
// on the same index.
func ApplyParams[T any](idx index.Index[T], p Params) (prev Params, err error) {
	if len(p) == 0 {
		return Params{}, nil
	}
	knobs := knobsOf(idx)
	claimed := map[string]string{} // group -> request key that writes it
	for k, val := range p {
		kb, ok := knobs[k]
		if !ok {
			return nil, fmt.Errorf("experiments: index %q has no query-time param %q", idx.Name(), k)
		}
		for _, g := range kb.groups {
			if other, dup := claimed[g]; dup {
				return nil, fmt.Errorf("experiments: params %q and %q set the same knob", other, k)
			}
			claimed[g] = k
		}
		if math.IsNaN(val) || math.IsInf(val, 0) || val < 0 || (val == 0 && !kb.allowZero) {
			return nil, fmt.Errorf("experiments: param %s=%g out of range", k, val)
		}
		if kb.integer && (val != math.Trunc(val) || val > math.MaxInt32) {
			return nil, fmt.Errorf("experiments: param %s=%g must be an integer no larger than %d", k, val, math.MaxInt32)
		}
	}
	prev = make(Params, len(p))
	for k, val := range p {
		for rk, rv := range knobs[k].get() {
			prev[rk] = rv
		}
		knobs[k].set(val)
	}
	return prev, nil
}
