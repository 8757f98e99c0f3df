package main

import (
	"sync/atomic"

	"metricprox/internal/core"
)

// Comparison kinds counted by the View wrapper.
const (
	kindKnown = iota
	kindBounds
	kindDist
	kindLess
	kindLessThan
	kindDistIfLess
	kindPrefetch
	kindStats
	nKinds
)

var kindNames = [nKinds]string{"known", "bounds", "dist", "less", "lessthan", "distifless", "prefetch", "stats"}

// viewStats aggregates the View wrapper's calls. local and remote split
// the comparisons (bounds, dist, less, lessthan, distifless) by whether
// they sent an HTTP request; both stay 0 for in-process views.
type viewStats struct {
	kinds         [nKinds]busy
	local, remote atomic.Int64
}

// view is the traced core.View. wrapView returns it combined with exactly
// the optional interfaces the wrapped view implements: the prox builders
// probe for BoundsPrefetcher, the service probes for BatchBoundsView, and
// fallible callers for FallibleView, so a wrapper that added or dropped
// one would change what the builders do.
type view struct {
	tr *tracer
	v  core.View
	fv core.FallibleView
	// requests reads the remote client's request counter; nil in-process.
	requests func() int64
}

// wrapView wraps v. requests is the remote client's request counter, or
// nil for an in-process session.
func wrapView(tr *tracer, v core.View, requests func() int64) core.View {
	w := &view{tr: tr, v: v, requests: requests}
	fv, f := v.(core.FallibleView)
	w.fv = fv
	_, p := v.(core.BoundsPrefetcher)
	_, b := v.(core.BatchBoundsView)
	fx, px, bx := fallibleView{w}, prefetchView{w}, batchView{w}
	switch {
	case f && p && b:
		return struct {
			*view
			fallibleView
			prefetchView
			batchView
		}{w, fx, px, bx}
	case f && p:
		return struct {
			*view
			fallibleView
			prefetchView
		}{w, fx, px}
	case f && b:
		return struct {
			*view
			fallibleView
			batchView
		}{w, fx, bx}
	case p && b:
		return struct {
			*view
			prefetchView
			batchView
		}{w, px, bx}
	case f:
		return struct {
			*view
			fallibleView
		}{w, fx}
	case p:
		return struct {
			*view
			prefetchView
		}{w, px}
	case b:
		return struct {
			*view
			batchView
		}{w, bx}
	default:
		return w
	}
}

// call is the bookkeeping around one forwarded method.
type call struct {
	t0, r0 int64
}

func (w *view) enter() call {
	c := call{t0: w.tr.now()}
	if w.requests != nil {
		c.r0 = w.requests()
	}
	return c
}

func (w *view) exit(kind int, c call) {
	st := &w.tr.view
	st.kinds[kind].add(w.tr.now() - c.t0)
	if w.requests == nil || kind == kindKnown || kind == kindPrefetch || kind == kindStats {
		return
	}
	if w.requests() == c.r0 {
		st.local.Add(1)
	} else {
		st.remote.Add(1)
	}
}

func (w *view) N() int               { return w.v.N() }
func (w *view) MaxDistance() float64 { return w.v.MaxDistance() }

func (w *view) Stats() core.Stats {
	c := w.enter()
	defer w.exit(kindStats, c)
	return w.v.Stats()
}

func (w *view) Dist(i, j int) float64 {
	c := w.enter()
	defer w.exit(kindDist, c)
	return w.v.Dist(i, j)
}

func (w *view) Known(i, j int) (float64, bool) {
	c := w.enter()
	defer w.exit(kindKnown, c)
	return w.v.Known(i, j)
}

func (w *view) Bounds(i, j int) (float64, float64) {
	c := w.enter()
	defer w.exit(kindBounds, c)
	return w.v.Bounds(i, j)
}

func (w *view) Less(i, j, k, l int) bool {
	c := w.enter()
	defer w.exit(kindLess, c)
	return w.v.Less(i, j, k, l)
}

func (w *view) LessThan(i, j int, x float64) bool {
	c := w.enter()
	defer w.exit(kindLessThan, c)
	return w.v.LessThan(i, j, x)
}

func (w *view) DistIfLess(i, j int, x float64) (float64, bool) {
	c := w.enter()
	defer w.exit(kindDistIfLess, c)
	return w.v.DistIfLess(i, j, x)
}

// fallibleView forwards core.FallibleView's extra methods.
type fallibleView struct{ w *view }

func (f fallibleView) DistErr(i, j int) (float64, error) {
	c := f.w.enter()
	defer f.w.exit(kindDist, c)
	return f.w.fv.DistErr(i, j)
}

func (f fallibleView) LessErr(i, j, k, l int) (bool, error) {
	c := f.w.enter()
	defer f.w.exit(kindLess, c)
	return f.w.fv.LessErr(i, j, k, l)
}

func (f fallibleView) LessOutcome(i, j, k, l int) (bool, core.Outcome) {
	c := f.w.enter()
	defer f.w.exit(kindLess, c)
	return f.w.fv.LessOutcome(i, j, k, l)
}

func (f fallibleView) LessThanErr(i, j int, x float64) (bool, error) {
	c := f.w.enter()
	defer f.w.exit(kindLessThan, c)
	return f.w.fv.LessThanErr(i, j, x)
}

func (f fallibleView) DistIfLessErr(i, j int, x float64) (float64, bool, error) {
	c := f.w.enter()
	defer f.w.exit(kindDistIfLess, c)
	return f.w.fv.DistIfLessErr(i, j, x)
}

func (f fallibleView) OracleErr() error { return f.w.fv.OracleErr() }

// prefetchView forwards core.BoundsPrefetcher.
type prefetchView struct{ w *view }

func (p prefetchView) PrefetchBounds(pairs []core.Pair) {
	c := p.w.enter()
	defer p.w.exit(kindPrefetch, c)
	p.w.v.(core.BoundsPrefetcher).PrefetchBounds(pairs)
}

// batchView forwards core.BatchBoundsView.
type batchView struct{ w *view }

func (b batchView) BoundsBatch(is, js []int, lb, ub []float64) {
	c := b.w.enter()
	defer b.w.exit(kindBounds, c)
	b.w.v.(core.BatchBoundsView).BoundsBatch(is, js, lb, ub)
}
