package core

import (
	"sync"

	"metricprox/internal/obs"
	"metricprox/internal/pgraph"
)

// SharedSession is a concurrency-safe view of a Session. All knowledge
// (resolved pairs, tightened bounds, statistics) remains shared: a
// distance resolved by one goroutine prunes comparisons for every other.
//
// The lock protects only the in-memory bookkeeping — the partial graph,
// the bound scheme, the statistics. It is never held across an oracle
// round-trip: a comparison first tries to decide itself from bounds under
// the lock, and only when that fails does it resolve distances with the
// lock released. This matters because the library's entire premise is
// that the oracle dominates cost (milliseconds to seconds per call);
// holding a mutex across it would serialise every worker back to
// sequential wall-clock exactly when parallelism pays most.
//
// Concurrent resolutions of the same pair are deduplicated with a
// single-flight map: the first goroutine to need an unresolved pair makes
// the one oracle call, every other goroutine needing that pair blocks on
// the in-flight result. Each pair therefore costs at most one oracle call
// across all workers — the same guarantee the memoising sequential
// Session gives.
//
// Output identity still holds: a comparison is only short-circuited when
// the bounds make its outcome certain, and bounds only tighten as edges
// resolve, so every decision is sound regardless of the interleaving.
// Which comparisons get short-circuited (and hence the call count) does
// depend on resolution order; the answers do not.
type SharedSession struct {
	mu       sync.Mutex
	s        *Session
	inflight map[int64]*flight
	deg      Degrader
}

// Share wraps a Session for concurrent use. The underlying Session must
// not be used directly while the shared view is live.
func Share(s *Session) *SharedSession {
	c := &SharedSession{s: s, inflight: make(map[int64]*flight)}
	c.deg = NewDegrader(c.Bounds, c.degraded)
	return c
}

// degraded is the shared view's failure hook for its Degrader.
func (c *SharedSession) degraded(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.degraded(err)
}

// N returns the number of objects.
func (c *SharedSession) N() int { return c.s.N() } // immutable, no lock

// MaxDistance returns the configured distance cap.
func (c *SharedSession) MaxDistance() float64 { return c.s.MaxDistance() } // immutable, no lock

// DistErr resolves the exact distance for (i, j), making at most one
// oracle call per pair across all goroutines; see Session.DistErr. The
// lock is released for the duration of the oracle round-trip. A failed
// attempt is shared with every goroutine waiting on the same flight but
// commits nothing, so the pair can be retried by a later call.
func (c *SharedSession) DistErr(i, j int) (float64, error) {
	if i == j {
		return 0, nil
	}
	key := pgraph.Key(i, j)
	c.mu.Lock()
	if w, ok := c.s.Known(i, j); ok {
		c.mu.Unlock()
		return w, nil
	}
	if f, ok := c.inflight[key]; ok {
		// Another goroutine owns the oracle call for this pair; wait for
		// its result instead of duplicating the call.
		c.mu.Unlock()
		return f.wait()
	}
	f := newFlight()
	c.inflight[key] = f
	c.mu.Unlock()

	d, err := c.s.oracleDistanceErr(i, j) // the expensive part, unlocked

	c.mu.Lock()
	if err != nil {
		c.s.noteOracleErr(err)
	} else {
		c.s.commitResolution(i, j, d)
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	f.finish(d, err)
	return d, err
}

// ResolveBatch resolves every pair of pairs exactly; see
// Session.ResolveBatch. The pairs nobody has resolved or is resolving
// are registered as this call's flights and fanned out with the lock
// released, then committed in input order under it; pairs another
// goroutine is already resolving are waited for, not called again, so
// each pair still costs at most one oracle call across all goroutines.
// The error is the first failure in input order, this call's or a
// waited-for flight's.
func (c *SharedSession) ResolveBatch(pairs []Pair) error {
	c.mu.Lock()
	todo := c.s.unresolved(pairs)
	flights := make([]*flight, len(todo))
	owned := make([]bool, len(todo))
	var mine []Pair
	for x, p := range todo {
		key := pgraph.Key(p.A, p.B)
		if f, ok := c.inflight[key]; ok {
			flights[x] = f
			continue
		}
		flights[x], owned[x] = newFlight(), true
		c.inflight[key] = flights[x]
		mine = append(mine, p)
	}
	c.mu.Unlock()

	res := c.s.fanOut(mine, false) // the expensive part, unlocked

	c.mu.Lock()
	c.s.commitBatch(mine, res)
	for _, p := range mine {
		delete(c.inflight, pgraph.Key(p.A, p.B))
	}
	c.mu.Unlock()
	// Publish every own flight before waiting on anyone else's: two
	// batches waiting on each other's flights must not deadlock.
	m := 0
	for x, f := range flights {
		if owned[x] {
			f.finish(res[m].d, res[m].err)
			m++
		}
	}
	var first error
	for _, f := range flights {
		if _, err := f.wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Dist resolves the exact distance (memoised, single-flight), degrading
// like Session.Dist when the resolution fails.
func (c *SharedSession) Dist(i, j int) float64 {
	d, err := c.DistErr(i, j)
	return c.deg.Dist(d, err, i, j)
}

// Known reports an already-resolved pair.
func (c *SharedSession) Known(i, j int) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Known(i, j)
}

// Bounds returns the current bounds without an oracle call.
func (c *SharedSession) Bounds(i, j int) (float64, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Bounds(i, j)
}

// BoundsBatch answers many bound queries in one pass under a single lock
// acquisition; see Session.BoundsBatch. No oracle call is ever made, so
// holding the lock for the whole batch is cheap — and one acquisition per
// batch is the point for prefetch-style callers.
func (c *SharedSession) BoundsBatch(is, js []int, lb, ub []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.BoundsBatch(is, js, lb, ub)
}

// Every comparison below is Session's primitive for its shape, deciding
// under the lock and resolving through the single-flight DistErr with the
// lock released; the never-failing forms answer through the Degrader.

// Less reports whether dist(i,j) < dist(k,l), degrading like
// Session.Less on a failed resolution.
func (c *SharedSession) Less(i, j, k, l int) bool {
	r, _ := c.LessOutcome(i, j, k, l)
	return r
}

// LessErr is Less with error propagation; see Session.LessErr.
func (c *SharedSession) LessErr(i, j, k, l int) (bool, error) {
	r, _, err := c.s.less(&c.mu, c, obs.OutcomeError, i, j, k, l)
	return r, err
}

// LessOutcome is Less plus a per-call outcome report; see
// Session.LessOutcome.
func (c *SharedSession) LessOutcome(i, j, k, l int) (result bool, out Outcome) {
	r, out, err := c.s.less(&c.mu, c, obs.OutcomeDegraded, i, j, k, l)
	return c.deg.Less(r, out, err, i, j, k, l)
}

// LessThan reports whether dist(i,j) < v, degrading like Session.LessThan
// on a failed resolution.
func (c *SharedSession) LessThan(i, j int, v float64) bool {
	r, err := c.s.lessThan(&c.mu, c, obs.OutcomeDegraded, i, j, v)
	return c.deg.LessThan(r, err, i, j, v)
}

// LessThanErr is LessThan with error propagation; see Session.LessThanErr.
func (c *SharedSession) LessThanErr(i, j int, v float64) (bool, error) {
	return c.s.lessThan(&c.mu, c, obs.OutcomeError, i, j, v)
}

// DistIfLess is the value-needed comparison; see Session.DistIfLess. On a
// failed resolution the returned value is an uncommitted estimate.
func (c *SharedSession) DistIfLess(i, j int, v float64) (float64, bool) {
	d, less, err := c.s.distIfLess(&c.mu, c, obs.OutcomeDegraded, i, j, v)
	return c.deg.DistIfLess(d, less, err, i, j, v)
}

// DistIfLessErr is DistIfLess with error propagation; see
// Session.DistIfLessErr.
func (c *SharedSession) DistIfLessErr(i, j int, v float64) (float64, bool, error) {
	return c.s.distIfLess(&c.mu, c, obs.OutcomeError, i, j, v)
}

// Bootstrap resolves landmark rows; see Session.Bootstrap. Bootstrap is a
// setup phase, not a hot path, so it runs under the full lock.
func (c *SharedSession) Bootstrap(landmarks []int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	//proxlint:allow lockheldoracle -- setup phase: Bootstrap runs before workers start, so holding the lock across its oracle calls serialises nothing; DistErr is the hot path and releases the lock around every round-trip
	return c.s.Bootstrap(landmarks)
}

// BootstrapErr is Bootstrap with error propagation; see
// Session.BootstrapErr.
func (c *SharedSession) BootstrapErr(landmarks []int) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//proxlint:allow lockheldoracle -- setup phase; see Bootstrap
	return c.s.BootstrapErr(landmarks)
}

// OracleErr returns the first resolution failure the session has seen;
// see Session.OracleErr.
func (c *SharedSession) OracleErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.OracleErr()
}

// ViolationErr returns the first triangle-inequality violation the
// session's auditor observed; see Session.ViolationErr. The auditor is
// internally synchronised — concurrent resolutions audit without the
// session lock held beyond the usual commit bookkeeping.
func (c *SharedSession) ViolationErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.ViolationErr()
}

// SlackEps returns the additive slack currently applied to derived
// intervals; see Session.SlackEps.
func (c *SharedSession) SlackEps() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.SlackEps()
}

// StoreErr returns the first failed append to the attached cache store;
// see Session.StoreErr.
func (c *SharedSession) StoreErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.StoreErr()
}

// Stats snapshots the session statistics.
func (c *SharedSession) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Stats()
}
