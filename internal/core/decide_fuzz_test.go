package core

import (
	"math"
	"testing"
)

// FuzzDecisionKernel checks the decision kernel against ground truth: for
// finite intervals with 0 ≤ LB ≤ UB and a cutoff that is finite or +Inf,
// every settled verdict must agree with the true comparison for points
// sampled inside the intervals — the output-preservation theorem in its
// smallest form — and every open comparison must report a finite gap ≥ 0.
func FuzzDecisionKernel(f *testing.F) {
	f.Add(0.1, 0.2, 0.5, 0.1, 0.3, false, 0.5, 0.25)
	f.Add(0.0, 1.0, 0.0, 1.0, 0.5, false, 0.0, 1.0)
	f.Add(0.4, 0.0, 0.4, 0.0, 0.4, false, 0.3, 0.7)
	f.Add(0.2, 0.3, 0.6, 0.0, 0.0, true, 0.9, 0.1)
	f.Add(3.0, 0.0, 1.0, 2.0, 3.0, false, 1.0, 0.0)
	f.Fuzz(func(t *testing.T, lbA, widthA, lbB, widthB, c float64, inf bool, fracA, fracB float64) {
		for _, v := range []float64{lbA, widthA, lbB, widthB, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Skip()
			}
		}
		a := Interval{lbA, lbA + widthA}
		b := Interval{lbB, lbB + widthB}
		if math.IsInf(a.UB, 0) || math.IsInf(b.UB, 0) {
			t.Skip()
		}
		if inf {
			c = math.Inf(1)
		}
		xs, ys := samples(a, fracA), samples(b, fracB)

		checkGap := func(shape string, settled bool, gap float64) {
			t.Helper()
			if settled && gap != 0 {
				t.Fatalf("%s settled with gap %v, want 0", shape, gap)
			}
			if !settled && (math.IsNaN(gap) || math.IsInf(gap, 0) || gap < 0) {
				t.Fatalf("%s open with gap %v, want finite and ≥ 0 (a=%v b=%v c=%v)", shape, gap, a, b, c)
			}
		}

		r, settled, gap := a.Less(b)
		checkGap("Less", settled, gap)
		for _, x := range xs {
			for _, y := range ys {
				if settled && r != (x < y) {
					t.Fatalf("Less(%v, %v) settled %v, but %v < %v is %v", a, b, r, x, y, x < y)
				}
			}
		}

		r, settled, gap = a.LessThan(c)
		checkGap("LessThan", settled, gap)
		for _, x := range xs {
			if settled && r != (x < c) {
				t.Fatalf("LessThan(%v, %v) settled %v, but %v < %v is %v", a, c, r, x, c, x < c)
			}
		}

		r, settled, gap = a.DistIfLess(c)
		checkGap("DistIfLess", settled, gap)
		if r {
			t.Fatalf("DistIfLess(%v, %v) answered yes; only the distance itself can", a, c)
		}
		for _, x := range xs {
			if settled && x < c {
				t.Fatalf("DistIfLess(%v, %v) settled no, but %v < %v", a, c, x, c)
			}
		}
	})
}

// samples returns points of iv: both endpoints, the midpoint, and the
// point at fraction frac (folded into [0, 1]) of the way from LB to UB.
func samples(iv Interval, frac float64) []float64 {
	if math.IsNaN(frac) || math.IsInf(frac, 0) {
		frac = 0.5
	}
	frac = math.Abs(math.Mod(frac, 1))
	at := func(f float64) float64 {
		return math.Min(iv.UB, math.Max(iv.LB, iv.LB+f*(iv.UB-iv.LB)))
	}
	return []float64{iv.LB, iv.UB, at(0.5), at(frac)}
}
