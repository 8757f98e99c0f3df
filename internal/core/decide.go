package core

import (
	"math"
	"sync"

	"metricprox/internal/obs"
)

// Interval is a sound enclosure [LB, UB] of one distance: a pair's current
// bounds, or [d, d] once the pair is resolved. Its three methods are the
// decision kernel — the only place the conditions under which an IF may be
// short-circuited, and the "why did we pay?" gap of one that may not, are
// written down. Session, SharedSession and the remote mirror in
// internal/proxclient all decide through them. Each returns the answer,
// whether the interval makes it certain, and the gap: 0 when settled,
// otherwise a finite figure ≥ 0 for how far the interval was from settling
// it (for finite intervals with 0 ≤ LB ≤ UB).
type Interval struct{ LB, UB float64 }

// Less settles dist_a < dist_b: certainly true when a lies wholly below b,
// certainly false when a lies at or above b. An open comparison's gap is
// the width of the overlap of the two intervals.
func (a Interval) Less(b Interval) (result, settled bool, gap float64) {
	if a.UB < b.LB {
		return true, true, 0
	}
	if a.LB >= b.UB {
		return false, true, 0
	}
	return false, false, math.Min(a.UB, b.UB) - math.Max(a.LB, b.LB)
}

// LessThan settles dist < c. An open comparison's gap is the width of the
// interval straddling c.
func (a Interval) LessThan(c float64) (result, settled bool, gap float64) {
	if a.UB < c {
		return true, true, 0
	}
	if a.LB >= c {
		return false, true, 0
	}
	return false, false, a.UB - a.LB
}

// DistIfLess settles the value-needed dist < c, which an interval can
// only ever answer "no": a "yes" still needs the distance itself. An open
// comparison's gap is min(c, UB) − LB — how far below the cutoff the lower
// bound sat, capped at the interval width so that c = +Inf (Prim's initial
// keys) still gives a finite figure.
func (a Interval) DistIfLess(c float64) (result, settled bool, gap float64) {
	if a.LB >= c {
		return false, true, 0
	}
	if a.UB < c {
		return false, false, a.UB - a.LB
	}
	return false, false, c - a.LB
}

// resolver is how a comparison's undecided tail resolves a pair exactly:
// Session.DistErr, or SharedSession.DistErr (single-flight, lock
// released).
type resolver interface {
	DistErr(i, j int) (float64, error)
}

// noLock is the lock a sequential Session decides under: none.
type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

// The three comparison primitives below are the *Err methods of Session
// and SharedSession, written once: decide under mu (cache step, kernel,
// comparator, bookkeeping), and only when that leaves the comparison open,
// resolve its pairs through r with mu released. failed is the trace
// outcome of a failed resolution — obs.OutcomeError when the caller
// returns the error, obs.OutcomeDegraded when the degrade adapter answers
// instead.

func (s *Session) less(mu sync.Locker, r resolver, failed string, i, j, k, l int) (bool, Outcome, error) {
	mu.Lock()
	res, out, gap := s.decideLess(i, j, k, l)
	mu.Unlock()
	if out != OutcomeUndecided {
		return res, out, nil
	}
	d1, d2, err := s.resolvePairs(r, failed, obs.OpLess, i, j, k, l, gap)
	if err != nil {
		return false, OutcomeUnavailable, err
	}
	return d1 < d2, OutcomeExact, nil
}

func (s *Session) lessThan(mu sync.Locker, r resolver, failed string, i, j int, c float64) (bool, error) {
	mu.Lock()
	res, out, gap := s.decideLessThan(i, j, c)
	mu.Unlock()
	if out != OutcomeUndecided {
		return res, nil
	}
	d, _, err := s.resolvePairs(r, failed, obs.OpLessThan, i, j, -1, -1, gap)
	if err != nil {
		return false, err
	}
	return d < c, nil
}

func (s *Session) distIfLess(mu sync.Locker, r resolver, failed string, i, j int, c float64) (float64, bool, error) {
	mu.Lock()
	d, less, out, gap := s.decideDistIfLess(i, j, c)
	mu.Unlock()
	if out != OutcomeUndecided {
		return d, less, nil
	}
	d, _, err := s.resolvePairs(r, failed, obs.OpDistIfLess, i, j, -1, -1, gap)
	if err != nil {
		return 0, false, err
	}
	return d, d < c, nil
}

// resolvePairs is the undecided tail every comparison shape shares: it
// resolves (i, j) and, for a two-term shape (k ≥ 0), (k, l) through r,
// stopping at the first failure, and traces the comparison's one event
// with the decision's gap and the time the resolutions took.
func (s *Session) resolvePairs(r resolver, failed, op string, i, j, k, l int, gap float64) (d1, d2 float64, err error) {
	t0 := s.traceStart()
	d1, err = r.DistErr(i, j)
	if err == nil && k >= 0 {
		d2, err = r.DistErr(k, l)
	}
	outcome := obs.OutcomeOracle
	if err != nil {
		outcome = failed
	}
	s.traceCmp(op, i, j, k, l, outcome, gap, s.traceSince(t0))
	return d1, d2, err
}

// decideLess settles dist(i,j) < dist(k,l) from resolved pairs, the
// kernel and the comparator alone, doing the stats and trace bookkeeping
// of a settled answer. OutcomeUndecided means the caller must resolve
// both pairs; ResolvedComparisons is already counted then, and gap is the
// kernel's. It never touches the oracle, so SharedSession runs it under
// its lock.
func (s *Session) decideLess(i, j, k, l int) (result bool, out Outcome, gap float64) {
	a, knownA := s.interval(i, j)
	b, knownB := s.interval(k, l)
	if knownA && knownB {
		return a.LB < b.LB, s.cacheHit(obs.OpLess, i, j, k, l), 0
	}
	result, settled, gap := a.Less(b)
	proved := false
	if !settled && s.cmp != nil {
		if s.cmp.ProveLess(i, j, k, l) {
			result, proved = true, true
		} else if s.cmp.ProveLess(k, l, i, j) {
			result, proved = false, true
		}
	}
	return result, s.book(obs.OpLess, i, j, k, l, settled, proved), gap
}

// decideLessThan is decideLess for dist(i,j) < c.
func (s *Session) decideLessThan(i, j int, c float64) (result bool, out Outcome, gap float64) {
	a, known := s.interval(i, j)
	if known {
		return a.LB < c, s.cacheHit(obs.OpLessThan, i, j, -1, -1), 0
	}
	result, settled, gap := a.LessThan(c)
	proved := false
	if !settled && s.cmp != nil {
		if s.cmp.ProveLessC(i, j, c) {
			result, proved = true, true
		} else if s.cmp.ProveGEC(i, j, c) {
			result, proved = false, true
		}
	}
	return result, s.book(obs.OpLessThan, i, j, -1, -1, settled, proved), gap
}

// decideDistIfLess is decideLess for the value-needed dist(i,j) < c; a
// cache hit also returns the distance.
func (s *Session) decideDistIfLess(i, j int, c float64) (d float64, less bool, out Outcome, gap float64) {
	a, known := s.interval(i, j)
	if known {
		return a.LB, a.LB < c, s.cacheHit(obs.OpDistIfLess, i, j, -1, -1), 0
	}
	_, settled, gap := a.DistIfLess(c)
	proved := !settled && s.cmp != nil && s.cmp.ProveGEC(i, j, c)
	return 0, false, s.book(obs.OpDistIfLess, i, j, -1, -1, settled, proved), gap
}

// cacheHit books a comparison answered from resolved pairs.
func (s *Session) cacheHit(op string, i, j, k, l int) Outcome {
	s.ins.CacheHits.Inc()
	s.traceCmp(op, i, j, k, l, obs.OutcomeCache, 0, 0)
	return OutcomeExact
}

// book records what the bound-only step achieved: a comparison the kernel
// settled or the comparator proved is saved and traced now; an open one
// is counted as resolved and traced by the tail once it has paid. It
// returns the Outcome, OutcomeUndecided for an open comparison.
func (s *Session) book(op string, i, j, k, l int, settled, proved bool) Outcome {
	if !settled && !proved {
		s.ins.ResolvedComparisons.Inc()
		return OutcomeUndecided
	}
	out, label := s.settled(proved)
	s.traceCmp(op, i, j, k, l, label, 0, 0)
	return out
}

// settled counts a comparison answered with no oracle call, from the
// kernel or (proved) the comparator. While the fallible oracle reports
// itself unavailable (circuit breaker open) it is also a DegradedAnswer:
// still exact — bounds are sound — but the only kind of answer the session
// can currently produce exactly. A kernel answer from intervals an active
// slack policy widened is OutcomeSlack and counts in SlackResolved; the
// comparator's proofs do not use those intervals. It returns the Outcome
// and its trace label.
func (s *Session) settled(proved bool) (Outcome, string) {
	s.ins.SavedComparisons.Inc()
	if s.ready != nil && !s.ready() {
		s.ins.DegradedAnswers.Inc()
	}
	if proved || !s.slackOn() {
		return OutcomeBounds, obs.OutcomeBounds
	}
	s.ins.SlackResolved.Inc()
	return OutcomeSlack, obs.OutcomeSlack
}

// interval returns the pair's current Interval — exactly what Bounds
// returns — and whether the pair is resolved, in which case it is [d, d]
// and no bound probe is paid.
func (s *Session) interval(i, j int) (Interval, bool) {
	if i == j {
		return Interval{}, false
	}
	if w, ok := s.g.Weight(i, j); ok {
		return Interval{w, w}, true
	}
	lb, ub := s.derived(i, j)
	return Interval{lb, ub}, false
}
