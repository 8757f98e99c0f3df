package core

import "metricprox/internal/fcmp"

// Pair identifies one distance term of an aggregate comparison.
type Pair struct{ A, B int }

// SumLess reports whether Σ dist over left is strictly less than Σ dist
// over right — the "distance aggregates" form of the paper's
// Contribution 1 (IF statements that compare sums of distances, as in
// 2-opt moves, clustering cost deltas, or tour comparisons).
//
// Interval bounds compose additively, so the difference Σleft − Σright
// has an interval too: if it lies wholly below 0 the answer is certainly
// true, if wholly at or above 0 certainly false. Only while it straddles
// 0 are unresolved terms resolved — largest bound-gap first, re-checking
// after each resolution, so the oracle is consulted as few times as
// possible.
func (s *Session) SumLess(left, right []Pair) bool {
	type term struct {
		p      Pair
		lb, ub float64
		sign   float64 // +1 for left, −1 for right
	}
	// Track bounds of Σleft − Σright.
	lo, hi := 0.0, 0.0
	var open []term
	add := func(ps []Pair, sign float64) {
		for _, p := range ps {
			lb, ub := s.Bounds(p.A, p.B)
			if sign > 0 {
				lo += lb
				hi += ub
			} else {
				lo -= ub
				hi -= lb
			}
			if !fcmp.ExactEq(lb, ub) {
				open = append(open, term{p: p, lb: lb, ub: ub, sign: sign})
			}
		}
	}
	add(left, 1)
	add(right, -1)
	for {
		if r, settled, _ := (Interval{lo, hi}).LessThan(0); settled {
			s.settled(false)
			return r
		}
		if len(open) == 0 {
			return lo < 0
		}
		widest, gap := 0, -1.0
		for i, t := range open {
			if g := t.ub - t.lb; g > gap {
				widest, gap = i, g
			}
		}
		t := open[widest]
		open[widest] = open[len(open)-1]
		open = open[:len(open)-1]
		s.ins.ResolvedComparisons.Inc()
		d := s.Dist(t.p.A, t.p.B)
		if t.sign > 0 {
			lo += d - t.lb
			hi += d - t.ub
		} else {
			lo -= d - t.ub
			hi -= d - t.lb
		}
	}
}
