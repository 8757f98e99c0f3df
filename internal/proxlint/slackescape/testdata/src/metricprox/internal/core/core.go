// Package core is a shape-faithful fake of the slack layer: Bounds
// widens every derived interval through SlackPolicy.Relax, DistErr
// resolves exactly and never relaxes. The analyzer must discover
// Bounds's "slack" fact on its own.
package core

import "errors"

// SlackPolicy declares how far an interval may be relaxed.
type SlackPolicy struct {
	// Additive is the ε applied to both endpoints.
	Additive float64
}

// Relax widens [lb, ub] to the sound near-metric envelope
// [lb−ε, ub+ε], clamped to [0, maxDist].
func (p SlackPolicy) Relax(lb, ub, eps, maxDist float64) (float64, float64) {
	lb -= eps
	if lb < 0 {
		lb = 0
	}
	ub += eps
	if ub > maxDist {
		ub = maxDist
	}
	return lb, ub
}

// Session answers bound queries with the session slack applied.
type Session struct {
	slack   SlackPolicy
	maxDist float64
}

// Bounds returns the relaxed derived interval for (i, j).
func (s *Session) Bounds(i, j int) (float64, float64) {
	lb, ub := 0.0, s.maxDist
	lb, ub = s.slack.Relax(lb, ub, s.slack.Additive, s.maxDist)
	return lb, ub
}

// SharedSession is the concurrent wrapper: its Bounds forwards the
// wrapped session's result tuple, relaxed endpoints included.
type SharedSession struct{ s *Session }

// Bounds returns the wrapped session's relaxed interval.
func (c *SharedSession) Bounds(i, j int) (float64, float64) {
	return c.s.Bounds(i, j)
}

// DistErr resolves the exact oracle distance or fails; slack never
// applies to resolved values.
func (s *Session) DistErr(i, j int) (float64, error) {
	if i == j {
		return 0, nil
	}
	if i < 0 || j < 0 {
		return 0, errors.New("out of range")
	}
	return 1, nil
}
