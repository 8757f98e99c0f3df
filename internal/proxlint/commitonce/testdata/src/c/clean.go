// Clean resolution paths: the pairing discipline observed end to end,
// with no diagnostics expected anywhere in this file.
package c

// resolveThrough is a second canonical pairing, behind an error guard.
func (s *session) resolveThrough(i, j int) (float64, error) {
	d, err := s.oracleDistanceErr(i, j)
	if err != nil {
		return 0, err
	}
	s.commitResolution(i, j, d)
	return d, nil
}

// resolveBatch is the canonical batch pairing: fan out, then commit.
func (s *session) resolveBatch(pairs [][2]int) error {
	ds := s.fanOut(pairs)
	return s.commitBatch(pairs, ds)
}

// readsOnly touches neither primitive and is outside the rule entirely.
func (s *session) readsOnly(i, j int) (float64, bool) {
	return s.known(i, j)
}
