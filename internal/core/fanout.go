package core

import (
	"sync"
	"sync/atomic"

	"metricprox/internal/pgraph"
)

// fanOutWidth is how many oracle calls one batch resolution keeps in
// flight. It is the only knob of the fan-out and deliberately not an
// option: the calls it overlaps are ones the caller must pay anyway, so
// the width trades nothing but backend concurrency. 16 covers a kNN
// build's first-k batch (k ≤ 16) in one wave; see DESIGN.md §3 for the
// measurements behind it.
const fanOutWidth = 16

// resolution is one fanned-out oracle call: its result, or done == false
// when the call was never made (dispatch stopped at an earlier failure).
type resolution struct {
	d    float64
	err  error
	done bool
}

// fanOut makes one oracle call per pair over up to fanOutWidth
// goroutines, dispatching pairs in input order, and returns the results
// in input order. It reads and writes no session state — the calls go
// through oracleDistanceErr alone — so SharedSession runs it with its
// lock released, and every result is committed afterwards, in input
// order, by commitBatch. With stopOnErr no pair is dispatched once a call
// has failed; the calls already in flight still finish. An oracle that
// declares metric.OrderSensitive gets its calls one at a time, in input
// order, so its values are the sequential loop's.
func (s *Session) fanOut(pairs []Pair, stopOnErr bool) []resolution {
	res := make([]resolution, len(pairs))
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !(stopOnErr && failed.Load()) {
			x := int(next.Add(1)) - 1
			if x >= len(pairs) {
				return
			}
			d, err := s.oracleDistanceErr(pairs[x].A, pairs[x].B)
			res[x] = resolution{d: d, err: err, done: true}
			if err != nil {
				failed.Store(true)
			}
		}
	}
	workers := min(fanOutWidth, len(pairs))
	if workers <= 1 || s.inOrder {
		work()
		return res
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return res
}

// unresolved returns the distinct pairs of pairs that are neither
// self-pairs nor already resolved, in order of first appearance.
func (s *Session) unresolved(pairs []Pair) []Pair {
	todo := make([]Pair, 0, len(pairs))
	seen := make(map[int64]bool, len(pairs))
	for _, p := range pairs {
		if p.A == p.B || s.g.Known(p.A, p.B) {
			continue
		}
		if key := pgraph.Key(p.A, p.B); !seen[key] {
			seen[key] = true
			todo = append(todo, p)
		}
	}
	return todo
}

// commitBatch commits fanOut's results for pairs in input order — every
// successful resolution exactly as DistErr would have committed it, so
// the bound tables, the cache-store log and replication see the
// sequential order — and latches and returns the first failure in input
// order.
func (s *Session) commitBatch(pairs []Pair, res []resolution) error {
	var first error
	for x, r := range res {
		switch {
		case !r.done:
		case r.err != nil:
			if first == nil {
				first = r.err
			}
		default:
			s.commitResolution(pairs[x].A, pairs[x].B, r.d)
		}
	}
	if first != nil {
		s.noteOracleErr(first)
	}
	return first
}

// ResolveBatch resolves every pair of pairs exactly, as DistErr on each
// in turn would, but with the oracle calls of the unresolved pairs in
// flight together (up to fanOutWidth at a time). It is for pairs the
// caller will resolve whatever the bounds say — a kNN scan's first k
// candidates, landmark rows — so it changes when calls are paid, never
// which: the oracle-call count and every committed value are those of
// the sequential loop. Every pair is attempted once; a failed pair stays
// unresolved, the first failure in input order is latched as OracleErr
// and returned.
func (s *Session) ResolveBatch(pairs []Pair) error {
	return s.resolveBatch(pairs, false)
}

// resolveBatch is ResolveBatch; with stopOnErr — the bootstrap's rule —
// no pair is dispatched once a call has failed. Every successful
// resolution is committed either way (its value is exact), so
// Stats.OracleCalls keeps matching the calls the oracle served.
func (s *Session) resolveBatch(pairs []Pair, stopOnErr bool) error {
	todo := s.unresolved(pairs)
	res := s.fanOut(todo, stopOnErr)
	return s.commitBatch(todo, res)
}
