// Package core is a stub of the session layer whose entrypoints the
// lockheldoracle analyzer treats as oracle-reaching.
package core

// Session mirrors the real session API surface.
type Session struct{}

func (s *Session) Dist(i, j int) float64              { return 0 }
func (s *Session) Less(i, j, k, l int) bool           { return false }
func (s *Session) LessThan(i, j int, c float64) bool  { return false }
func (s *Session) Known(i, j int) (float64, bool)     { return 0, false }
func (s *Session) Bounds(i, j int) (float64, float64) { return 0, 1 }
func (s *Session) Bootstrap(landmarks []int) int64    { return 0 }

// Error-propagating variants (fallible-oracle subsystem).
func (s *Session) DistErr(i, j int) (float64, error)           { return 0, nil }
func (s *Session) LessErr(i, j, k, l int) (bool, error)        { return false, nil }
func (s *Session) OracleErr() error                            { return nil }
func (s *Session) BootstrapErr(landmarks []int) (int64, error) { return 0, nil }

// Pair names one unordered pair for batch resolution.
type Pair struct{ A, B int }

// ResolveBatch fans the pairs' oracle calls out; it reaches the oracle.
func (s *Session) ResolveBatch(pairs []Pair) error { return nil }

// Interval mirrors the decision kernel: pure interval arithmetic whose
// methods share the session's names but never reach the oracle.
type Interval struct{ LB, UB float64 }

func (a Interval) Less(b Interval) (result, settled bool, gap float64) { return a.UB < b.LB, true, 0 }
