// Package c exercises the commitonce analyzer: every function touching
// the resolution primitives must pair exactly one oracle round-trip
// (oracleDistance or oracleDistanceErr) with exactly one
// commitResolution, round-trip first.
package c

type session struct{ calls int64 }

func (s *session) oracleDistance(i, j int) float64 { s.calls++; return float64(i + j) }

func (s *session) oracleDistanceErr(i, j int) (float64, error) { s.calls++; return float64(i + j), nil }

func (s *session) commitResolution(i, j int, d float64) {}

func (s *session) known(i, j int) (float64, bool) { return 0, false }

// fanOut and commitBatch are the batch pair.
func (s *session) fanOut(pairs [][2]int) []float64 { return make([]float64, len(pairs)) }

func (s *session) commitBatch(pairs [][2]int, ds []float64) error { return nil }

// goodPair is the canonical resolution path.
func (s *session) goodPair(i, j int) float64 {
	if w, ok := s.known(i, j); ok {
		return w
	}
	d := s.oracleDistance(i, j)
	s.commitResolution(i, j, d)
	return d
}

// goodFalliblePair is the canonical fallible resolution path: a failed
// round-trip commits nothing, but the call sites still pair one-to-one.
func (s *session) goodFalliblePair(i, j int) (float64, error) {
	if w, ok := s.known(i, j); ok {
		return w, nil
	}
	d, err := s.oracleDistanceErr(i, j)
	if err != nil {
		return 0, err
	}
	s.commitResolution(i, j, d)
	return d, nil
}

func (s *session) uncommitted(i, j int) float64 {
	return s.oracleDistance(i, j) // want `uncommitted performs an oracle round-trip without a matching commitResolution`
}

func (s *session) uncommittedFallible(i, j int) (float64, error) {
	return s.oracleDistanceErr(i, j) // want `uncommittedFallible performs an oracle round-trip without a matching commitResolution`
}

func (s *session) phantomCommit(i, j int) {
	s.commitResolution(i, j, 0) // want `phantomCommit calls commitResolution without a matching oracle round-trip`
}

func (s *session) committedBeforeResolved(i, j int) float64 {
	s.commitResolution(i, j, 0) // want `committedBeforeResolved commits a resolution before the oracle round-trip`
	return s.oracleDistance(i, j)
}

func (s *session) doublePair(i, j, k, l int) { // want `doublePair contains 2 oracle round-trip and 2 commitResolution calls`
	d1 := s.oracleDistance(i, j)
	s.commitResolution(i, j, d1)
	d2, _ := s.oracleDistanceErr(k, l)
	s.commitResolution(k, l, d2)
}

func (s *session) allowlisted(i, j int) float64 {
	//proxlint:allow commitonce -- replaying a persisted resolution, counted at write time
	return s.oracleDistance(i, j)
}

func (s *session) uncommittedBatch(pairs [][2]int) []float64 {
	return s.fanOut(pairs) // want `uncommittedBatch performs an oracle round-trip without a matching commitBatch`
}

func (s *session) batchCommittedFirst(pairs [][2]int) error {
	return s.commitBatch(pairs, s.fanOut(pairs)) // want `batchCommittedFirst commits a resolution before the oracle round-trip; commitBatch must follow`
}

// unrelated functions never trip the analyzer.
func unrelated(x int) int { return x * 2 }
