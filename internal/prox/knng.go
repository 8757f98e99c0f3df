package prox

import (
	"sort"

	"metricprox/internal/core"
	"metricprox/internal/fcmp"
)

// KNNGraph constructs the k-nearest-neighbour graph in the style of KNNrp
// (Paredes et al., "Practical construction of k-nearest neighbor graphs in
// metric spaces", WEA 2006): for each object the candidate objects are
// processed in ascending order of their current *lower bound*, and the scan
// stops as soon as the next candidate's lower bound reaches the running
// k-th-nearest distance — every remaining candidate is pruned wholesale.
// Bounds only tighten as edges resolve, so the early exit is sound.
//
// Each inner comparison is the paper's canonical IF: `is dist(u,v) smaller
// than the current k-th nearest distance?` — re-authored as
// Session.DistIfLess. Output: for every object, its k nearest neighbours
// in the canonical (distance, id) order; ties at exactly the k-th distance
// resolve in favour of the smaller id, deterministically across schemes,
// worker counts, and scan interleavings. k ≤ 0 yields empty lists.
func KNNGraph(s core.View, k int) [][]Neighbor {
	n := s.N()
	if k >= n {
		k = n - 1
	}
	if k <= 0 {
		return emptyNeighborLists(n)
	}
	out := make([][]Neighbor, n)
	for u := 0; u < n; u++ {
		out[u] = knnForNode(s, u, k)
	}
	return out
}

// KNNRow returns the k nearest neighbours of the single object u, in the
// same canonical (distance, id) order as the matching row of KNNGraph.
// Exported so callers that need only part of the graph — the warm-restart
// tests drive half a build this way — pay only for the rows they ask for.
func KNNRow(s core.View, u, k int) []Neighbor {
	n := s.N()
	if k >= n {
		k = n - 1
	}
	if k <= 0 {
		return []Neighbor{}
	}
	return knnForNode(s, u, k)
}

// prefetchRow hints a remote view (core.BoundsPrefetcher) that the bounds
// of (u, v) for every v ≠ u are about to be read, collapsing what would be
// n−1 bound round-trips into one batch. A no-op for in-process sessions.
func prefetchRow(s core.View, u, n int) {
	p, ok := s.(core.BoundsPrefetcher)
	if !ok {
		return
	}
	pairs := make([]core.Pair, 0, n-1)
	for v := 0; v < n; v++ {
		if v != u {
			pairs = append(pairs, core.Pair{A: u, B: v})
		}
	}
	p.PrefetchBounds(pairs)
}

// emptyNeighborLists is the degenerate k ≤ 0 (or n ≤ 1) result: every
// object has an empty neighbour list.
func emptyNeighborLists(n int) [][]Neighbor {
	out := make([][]Neighbor, n)
	for i := range out {
		out[i] = []Neighbor{}
	}
	return out
}

// knnForNode runs the candidate scan for one node. It is shared verbatim
// by the sequential and parallel builders (core.View abstracts the
// session), which is what makes the single-worker parallel build match the
// sequential one call-for-call. Requires 0 < k < s.N().
//
// The scan maintains the running k-th neighbour as the pair (kth, kthID)
// and admits a candidate exactly when its (distance, id) precedes it
// lexicographically, so the returned set is the canonical k smallest
// (distance, id) pairs regardless of the order candidates resolve in.
func knnForNode(s core.View, u, k int) []Neighbor {
	n := s.N()
	prefetchRow(s, u, n)
	type cand struct {
		id int
		lb float64
	}
	cands := make([]cand, 0, n-1)
	for v := 0; v < n; v++ {
		if v == u {
			continue
		}
		lb, _ := s.Bounds(u, v)
		cands = append(cands, cand{id: v, lb: lb})
	}
	sort.Slice(cands, func(a, b int) bool {
		return fcmp.TieLess(cands[a].lb, cands[a].id, cands[b].lb, cands[b].id)
	})
	if br, ok := s.(core.BatchResolver); ok {
		// Until k neighbours are in, the threshold is 2·MaxDistance, which
		// no sound bound reaches: the first k candidates are resolved
		// whatever the bounds say, so resolve them together. A failure is
		// left for the scan's own DistIfLess to retry or degrade.
		first := make([]core.Pair, min(k, len(cands)))
		for x := range first {
			first[x] = core.Pair{A: u, B: cands[x].id}
		}
		_ = br.ResolveBatch(first)
	}

	// Running top-k as a simple sorted slice (k is small).
	best := make([]Neighbor, 0, k+1)
	kth := s.MaxDistance() * 2 // +∞ until k candidates are in
	kthID := -1                // id of the current k-th neighbour
	for _, c := range cands {
		if len(best) == k && (c.lb > kth || (fcmp.ExactEq(c.lb, kth) && c.id > kthID)) {
			// Candidates are sorted by (lb, id): every remaining one has
			// d ≥ lb > kth, or ties at kth with an id that loses to the
			// incumbent k-th neighbour. All pruned wholesale.
			break
		}
		threshold := kth
		if len(best) < k {
			threshold = s.MaxDistance() * 2
		}
		d, less := s.DistIfLess(u, c.id, threshold)
		if !less {
			// d ≥ kth. A tie d == kth still wins when c.id beats the
			// incumbent k-th neighbour's id in the canonical order.
			if len(best) < k || c.id > kthID {
				continue
			}
			if w, ok := s.Known(u, c.id); ok {
				d = w // resolved by DistIfLess (or a concurrent worker)
			} else {
				lb, _ := s.Bounds(u, c.id)
				if lb > kth {
					continue // provably beyond the k-th distance
				}
				d = s.Dist(u, c.id)
			}
			if !fcmp.ExactEq(d, kth) {
				continue
			}
		}
		best = append(best, Neighbor{ID: c.id, Dist: d})
		sortNeighbors(best)
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			kth = best[k-1].Dist
			kthID = best[k-1].ID
		}
	}
	return best
}
