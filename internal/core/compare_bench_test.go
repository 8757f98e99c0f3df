package core

import (
	"math/rand"
	"testing"

	"metricprox/internal/datasets"
	"metricprox/internal/metric"
)

// cmpQuery is one comparison the benchmark replays: Less uses all four
// indices, LessThan and DistIfLess use (i, j) against c.
type cmpQuery struct {
	i, j, k, l int
	c          float64
}

// warmedTri returns a bootstrapped Tri session over a planar n=200
// universe, and a query set it has already answered once. Replaying the
// queries therefore makes no oracle call and commits nothing: a pair the
// warm pass resolved is now a cache hit, and a comparison the bounds
// settled stays settled because bounds only tighten. What the replay
// measures is the decision path alone — cache step, kernel, stats, outcome
// classification and the degrade adapter's success branch.
func warmedTri(b *testing.B) (*Session, []cmpQuery) {
	b.Helper()
	const n = 200
	s := NewSession(metric.NewOracle(datasets.SFPOIPlanar(n, 1)), SchemeTri)
	s.Bootstrap(PickLandmarks(n, 8, 1))
	rng := rand.New(rand.NewSource(2))
	qs := make([]cmpQuery, 4096)
	for x := range qs {
		qs[x] = cmpQuery{rng.Intn(n), rng.Intn(n), rng.Intn(n), rng.Intn(n), rng.Float64()}
	}
	for _, q := range qs {
		s.Less(q.i, q.j, q.k, q.l)
		s.LessThan(q.i, q.j, q.c)
		s.DistIfLess(q.i, q.j, q.c)
	}
	return s, qs
}

// cmpSink keeps the compiler from discarding the measured calls.
var cmpSink bool

// BenchmarkSessionCompare measures one re-authored IF per operation for
// each comparison shape on a sequential Session and on a SharedSession
// (one goroutine, so the lock is uncontended). Every sub-benchmark must
// report 0 allocs/op.
func BenchmarkSessionCompare(b *testing.B) {
	views := []struct {
		name string
		view func(s *Session) View
	}{
		{"Session", func(s *Session) View { return s }},
		{"SharedSession", func(s *Session) View { return Share(s) }},
	}
	shapes := []struct {
		name string
		run  func(v View, q cmpQuery) bool
	}{
		{"Less", func(v View, q cmpQuery) bool { return v.Less(q.i, q.j, q.k, q.l) }},
		{"LessThan", func(v View, q cmpQuery) bool { return v.LessThan(q.i, q.j, q.c) }},
		{"DistIfLess", func(v View, q cmpQuery) bool { _, r := v.DistIfLess(q.i, q.j, q.c); return r }},
	}
	for _, sh := range shapes {
		for _, vw := range views {
			b.Run(sh.name+"/"+vw.name, func(b *testing.B) {
				s, qs := warmedTri(b)
				v := vw.view(s)
				calls := s.Stats().OracleCalls
				b.ReportAllocs()
				b.ResetTimer()
				for x := 0; x < b.N; x++ {
					cmpSink = sh.run(v, qs[x%len(qs)])
				}
				b.StopTimer()
				if got := s.Stats().OracleCalls; got != calls {
					b.Fatalf("replay spent %d oracle calls; the warm pass must cover every query", got-calls)
				}
			})
		}
	}
}
