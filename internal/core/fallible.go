package core

import (
	"errors"

	"metricprox/internal/obs"
)

// ErrOracleUnavailable wraps every resolution failure surfaced by the
// error-propagating Session methods (DistErr, LessErr, …): the bound
// scheme could not settle the comparison and the oracle could not be
// reached (retry budget exhausted, circuit breaker open, or the session
// context is dead). The underlying cause is wrapped and available via
// errors.Is/As.
var ErrOracleUnavailable = errors.New("core: oracle unavailable")

// Outcome classifies how a comparison was answered. The three
// user-visible outcomes let callers of a fallible session distinguish
// "exact", "bounds-resolved" (also exact — bounds are sound — but paid no
// oracle call), and "best-effort while unavailable".
type Outcome int

const (
	// OutcomeUndecided is internal: the bookkeeping half of a comparison
	// could not settle it and the oracle must be consulted. It never
	// escapes the exported methods.
	OutcomeUndecided Outcome = iota
	// OutcomeExact means the answer came from exact distances (cache hit
	// or a successful oracle resolution).
	OutcomeExact
	// OutcomeBounds means the answer was proven from triangle-inequality
	// bounds (or the comparator) with no oracle call. Still exact.
	OutcomeBounds
	// OutcomeUnavailable means a needed resolution failed and the answer
	// is a best-effort estimate from bounds midpoints. OracleErr is
	// latched whenever this outcome is produced.
	OutcomeUnavailable
	// OutcomeSlack means the answer was proven from bound intervals that
	// an active SlackPolicy had widened: exact under the declared
	// near-metric contract (d ≤ ρ·(sum of legs) + ε), rather than
	// unconditionally like OutcomeBounds.
	OutcomeSlack
)

// String returns the outcome name used in reports.
func (o Outcome) String() string {
	switch o {
	case OutcomeUndecided:
		return "undecided"
	case OutcomeExact:
		return "exact"
	case OutcomeBounds:
		return "bounds"
	case OutcomeUnavailable:
		return "unavailable"
	case OutcomeSlack:
		return "slack"
	default:
		return "outcome(?)"
	}
}

// OracleErr returns the first resolution failure the session has seen,
// or nil. Once non-nil, answers produced since by the legacy infallible
// methods may be best-effort estimates (counted in Stats.DegradedAnswers)
// rather than exact; a run that finishes with OracleErr() == nil is
// guaranteed identical to a fault-free run.
func (s *Session) OracleErr() error { return s.oracleErr }

// noteOracleErr latches the first resolution failure. Callers on the
// SharedSession path must hold the session lock.
func (s *Session) noteOracleErr(err error) {
	if s.oracleErr == nil {
		s.oracleErr = err
	}
}

// degraded is the Session's failure hook for its Degrader.
func (s *Session) degraded(err error) {
	s.noteOracleErr(err)
	s.ins.DegradedAnswers.Inc()
}

// Degrader is the one degrade adapter. Every FallibleView implementation
// — Session, SharedSession and the remote mirror in internal/proxclient —
// derives its never-failing methods (Dist, Less, LessOutcome, LessThan,
// DistIfLess) from its *Err primitives through one, so "degraded" means
// the same everywhere: a failed primitive's error is latched as OracleErr
// (and, in-process, counted as a DegradedAnswer), and the answer comes
// from the midpoints of the pairs' current bounds — an estimate handed to
// the caller only, never committed to a graph, bound scheme or cache. A
// primitive that succeeded passes through unchanged. (The "degraded"
// trace event of an in-process comparison is recorded by its primitive's
// tail, which knows the gap and the time spent.)
type Degrader struct {
	bounds func(i, j int) (lb, ub float64)
	fail   func(err error)
}

// NewDegrader builds a view's adapter from its bounds — read without any
// oracle call or round-trip — and its failure hook, which latches the
// error as OracleErr and counts the degraded answer where the view keeps
// counters.
func NewDegrader(bounds func(i, j int) (lb, ub float64), fail func(err error)) Degrader {
	return Degrader{bounds: bounds, fail: fail}
}

// estimate returns the midpoint of the current bounds for (i, j).
func (g Degrader) estimate(i, j int) float64 {
	lb, ub := g.bounds(i, j)
	return (lb + ub) / 2
}

// fallback hands err to the failure hook and returns the estimate for
// (i, j). The methods below call it only on failure, which keeps their
// success path small enough to inline.
func (g Degrader) fallback(err error, i, j int) float64 {
	g.fail(err)
	return g.estimate(i, j)
}

// Dist answers Dist from DistErr's result for (i, j).
func (g Degrader) Dist(d float64, err error, i, j int) float64 {
	if err != nil {
		return g.fallback(err, i, j)
	}
	return d
}

// Less answers LessOutcome from the Less primitive's result for
// dist(i,j) < dist(k,l); a degraded answer is OutcomeUnavailable.
func (g Degrader) Less(r bool, out Outcome, err error, i, j, k, l int) (bool, Outcome) {
	if err != nil {
		return g.fallback(err, i, j) < g.estimate(k, l), OutcomeUnavailable
	}
	return r, out
}

// LessThan answers LessThan from LessThanErr's result for dist(i,j) < c.
func (g Degrader) LessThan(r bool, err error, i, j int, c float64) bool {
	if err != nil {
		return g.fallback(err, i, j) < c
	}
	return r
}

// DistIfLess answers DistIfLess from DistIfLessErr's result for
// dist(i,j) < c; a degraded answer returns the estimate as the value.
func (g Degrader) DistIfLess(d float64, less bool, err error, i, j int, c float64) (float64, bool) {
	if err != nil {
		e := g.fallback(err, i, j)
		return e, e < c
	}
	return d, less
}

// LessErr is Less with error propagation: it reports dist(i,j) <
// dist(k,l), or a non-nil error wrapping ErrOracleUnavailable when the
// bounds were inconclusive and a needed resolution failed.
func (s *Session) LessErr(i, j, k, l int) (bool, error) {
	r, _, err := s.less(noLock{}, s, obs.OutcomeError, i, j, k, l)
	return r, err
}

// LessOutcome is Less plus a per-call outcome report. Unlike LessErr it
// never fails: when a needed resolution errors it answers through the
// Degrader and reports OutcomeUnavailable, which is exactly the legacy
// Less behaviour made observable.
func (s *Session) LessOutcome(i, j, k, l int) (result bool, out Outcome) {
	r, out, err := s.less(noLock{}, s, obs.OutcomeDegraded, i, j, k, l)
	return s.deg.Less(r, out, err, i, j, k, l)
}

// LessThanErr is LessThan with error propagation; see LessErr.
func (s *Session) LessThanErr(i, j int, c float64) (bool, error) {
	return s.lessThan(noLock{}, s, obs.OutcomeError, i, j, c)
}

// DistIfLessErr is DistIfLess with error propagation; see LessErr.
func (s *Session) DistIfLessErr(i, j int, c float64) (float64, bool, error) {
	return s.distIfLess(noLock{}, s, obs.OutcomeError, i, j, c)
}
