package core_test

import (
	"fmt"

	"metricprox/internal/core"
	"metricprox/internal/metric"
)

// A five-city toy universe with hand-picked pairwise "driving times",
// symmetric and triangle-consistent, normalised into [0,1].
func exampleOracle() *metric.Oracle {
	d := [][]float64{
		{0.0, 0.2, 0.5, 0.6, 0.9},
		{0.2, 0.0, 0.4, 0.5, 0.8},
		{0.5, 0.4, 0.0, 0.2, 0.5},
		{0.6, 0.5, 0.2, 0.0, 0.4},
		{0.9, 0.8, 0.5, 0.4, 0.0},
	}
	m, err := metric.NewMatrix(d)
	if err != nil {
		panic(err)
	}
	return metric.NewOracle(m)
}

// ExampleSession_Less shows the paper's core move: a distance comparison
// answered from triangle bounds with no oracle calls for the compared
// pair.
func ExampleSession_Less() {
	oracle := exampleOracle()
	s := core.NewSession(oracle, core.SchemeTri)

	// Resolve a few distances; the session feeds them into the bounds.
	s.Dist(0, 1) // 0.2
	s.Dist(1, 4) // 0.8
	s.Dist(0, 4) // 0.9
	s.Dist(1, 2) // 0.4
	s.Dist(2, 4) // 0.5
	before := oracle.Calls()

	// Is dist(0,2) < dist(0,4)? Bounds: d(0,2) ≤ d(0,1)+d(1,2) = 0.6 and
	// d(0,4) is known to be 0.9 — decided without resolving d(0,2).
	fmt.Println("less:", s.Less(0, 2, 0, 4))
	fmt.Println("extra oracle calls:", oracle.Calls()-before)
	// Output:
	// less: true
	// extra oracle calls: 0
}

// ExampleSession_Bounds shows interval queries over unresolved pairs.
func ExampleSession_Bounds() {
	s := core.NewSession(exampleOracle(), core.SchemeTri)
	s.Dist(0, 1)
	s.Dist(1, 3)
	lb, ub := s.Bounds(0, 3) // via the triangle through object 1
	fmt.Printf("d(0,3) ∈ [%.1f, %.1f]\n", lb, ub)
	// Output:
	// d(0,3) ∈ [0.3, 0.7]
}

// ExampleSession_SumLess shows an aggregate comparison: is the direct
// leg 0→2 shorter than the route 0→1→2→3? The triangle through 1 caps
// d(0,2) at 0.6, below the resolved route's 0.8, so the sums compare
// without an oracle call.
func ExampleSession_SumLess() {
	oracle := exampleOracle()
	s := core.NewSession(oracle, core.SchemeTri)
	s.Dist(0, 1)
	s.Dist(1, 2)
	s.Dist(2, 3)
	before := oracle.Calls()
	shorter := s.SumLess([]core.Pair{{A: 0, B: 2}}, []core.Pair{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}})
	fmt.Println("shorter:", shorter, "oracle calls:", oracle.Calls()-before)
	// Output:
	// shorter: true oracle calls: 0
}
