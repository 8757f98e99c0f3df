// Package core is a shape-faithful fake of the session layer: Dist falls
// back to the bounds-midpoint estimate, DistErr never estimates. The
// analyzer must discover Dist's "degraded" fact on its own.
package core

import "errors"

// Session answers distance queries against a budgeted oracle.
type Session struct{ calls int }

// estimate returns the bounds midpoint: a degraded answer.
func (s *Session) estimate(i, j int) float64 { return 0.5 }

// resolve consults the oracle.
func (s *Session) resolve(i, j int) (float64, error) {
	if s.calls < 0 {
		return 0, errors.New("budget exhausted")
	}
	return 1, nil
}

// Dist returns the resolved distance, or the degraded estimate when the
// oracle is exhausted.
func (s *Session) Dist(i, j int) float64 {
	d, err := s.resolve(i, j)
	if err != nil {
		return s.estimate(i, j)
	}
	return d
}

// DistErr returns the resolved distance or the error; it never degrades.
func (s *Session) DistErr(i, j int) (float64, error) {
	return s.resolve(i, j)
}

// DistIfLess forwards its helper's result tuple, degraded value included.
func (s *Session) DistIfLess(i, j int, c float64) (float64, bool) {
	return s.degradeIfLess(i, j, c)
}

func (s *Session) degradeIfLess(i, j int, c float64) (float64, bool) {
	e := s.estimate(i, j)
	return e, e < c
}
