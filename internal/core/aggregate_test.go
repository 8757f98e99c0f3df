package core

import (
	"math/rand"
	"testing"

	"metricprox/internal/datasets"
	"metricprox/internal/metric"
)

func randPairs(rng *rand.Rand, n, count int) []Pair {
	var ps []Pair
	for len(ps) < count {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			ps = append(ps, Pair{A: a, B: b})
		}
	}
	return ps
}

func sumDist(m metric.Space, ps []Pair) float64 {
	s := 0.0
	for _, p := range ps {
		s += m.Distance(p.A, p.B)
	}
	return s
}

func TestSumLessExact(t *testing.T) {
	for _, sc := range []Scheme{SchemeNoop, SchemeTri} {
		m := datasets.RandomMetric(18, 63)
		o := metric.NewOracle(m)
		s := NewSession(o, sc)
		rng := rand.New(rand.NewSource(64))
		for trial := 0; trial < 150; trial++ {
			left := randPairs(rng, 18, 1+rng.Intn(3))
			right := randPairs(rng, 18, 1+rng.Intn(3))
			want := sumDist(m, left) < sumDist(m, right)
			if got := s.SumLess(left, right); got != want {
				t.Fatalf("scheme %v trial %d: SumLess = %v, want %v", sc, trial, got, want)
			}
		}
	}
}

func TestSumLessEmptySides(t *testing.T) {
	m := datasets.RandomMetric(5, 68)
	s := NewSession(metric.NewOracle(m), SchemeTri)
	if s.SumLess(nil, nil) {
		t.Fatal("0 < 0 reported true")
	}
	if !s.SumLess(nil, []Pair{{0, 1}}) {
		t.Fatal("0 < positive sum reported false")
	}
}
