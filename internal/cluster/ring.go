// Package cluster shards metricproxd across nodes. It contributes the
// three pieces that turn a set of independent daemons into one service:
//
//   - a consistent-hash ring (virtual nodes, deterministic seed) mapping
//     each session name to a primary plus R replicas, shared byte-for-byte
//     by the router and every node;
//   - an asynchronous bound-state replicator that tails each hosted
//     session's cachestore log and streams committed exact-distance
//     records to the session's replica owners with sequence-numbered,
//     idempotent, resumable appends;
//   - a thin reverse-proxy router that places requests on the primary and
//     falls through the replica list when a node is dead or draining.
//
// The unit of replication is the cachestore record — an exact resolved
// distance. Distances are deterministic functions of their pair, so a
// replica's log can lag or lose a suffix but can never disagree with the
// primary on a value: promotion replays a strictly-sound prefix, and the
// only cost of lag is re-paying the oracle for the lost tail. That is the
// paper's economics applied to failover — bound state is an accelerant,
// never a correctness dependency, so replicating it asynchronously is
// safe by construction (docs/CLUSTER.md walks the argument).
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per physical node when
// Config.VNodes is 0. 64 points per node keeps the ownership imbalance of
// small clusters within a few percent without making ring construction
// noticeable.
const DefaultVNodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node int // index into the node-name slice the ring was built from
}

// Ring is a consistent-hash ring over a fixed set of node names. It is
// immutable after construction and safe for concurrent use. Every
// participant — router or node — builds the ring from the
// same (names, vnodes, seed) triple and therefore computes identical
// ownership; there is no coordination protocol, only shared arithmetic.
type Ring struct {
	names  []string
	points []ringPoint
}

// NewRing builds a ring with vnodes virtual nodes per name (0 means
// DefaultVNodes), hashed with the given seed. Names must be non-empty and
// unique; order does not matter — ownership depends only on the set.
func NewRing(names []string, vnodes int, seed int64) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(names))
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n)
		}
		seen[n] = true
	}
	r := &Ring{
		names:  sorted,
		points: make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for ni, name := range sorted {
		for v := 0; v < vnodes; v++ {
			h := hashKey(fmt.Sprintf("%s#%d", name, v), seed)
			r.points = append(r.points, ringPoint{hash: h, node: ni})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on node index so hash collisions cannot make ownership
		// depend on sort stability.
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Owners returns the k distinct nodes owning key, primary first, walking
// the ring clockwise from the key's hash. k greater than the node count
// returns every node. The result is freshly allocated.
func (r *Ring) Owners(key string, k int) []string {
	if k > len(r.names) {
		k = len(r.names)
	}
	if k <= 0 {
		return nil
	}
	h := hashKey(key, ringKeySeed)
	// First point at or after h, wrapping.
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, k)
	taken := make(map[int]bool, k)
	for step := 0; step < len(r.points) && len(owners) < k; step++ {
		p := r.points[(idx+step)%len(r.points)]
		if !taken[p.node] {
			taken[p.node] = true
			owners = append(owners, r.names[p.node])
		}
	}
	return owners
}

// Primary returns the first owner of key.
func (r *Ring) Primary(key string) string { return r.Owners(key, 1)[0] }

// Nodes returns the ring's node names, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.names...) }

// ringKeySeed salts session-name hashes so they live in a different part
// of the 64-bit space than vnode hashes built with the same seed. The
// node seed itself stays configurable (Config.Seed) because vnode
// placement is what operators may want to re-roll.
const ringKeySeed = int64(0x6d7078726b657973) // "mpxrkeys"

// hashKey is FNV-1a 64 over s with the seed folded into the offset basis.
// FNV is not a great avalanche hash, but over "name#vnode" strings with
// 64 vnodes per node the dispersion is comfortably sufficient, and it is
// dependency-free and trivially portable to any other client
// implementation that wants to compute ownership.
func hashKey(s string, seed int64) uint64 {
	const (
		offset64 = uint64(14695981039346656037)
		prime64  = uint64(1099511628211)
	)
	h := offset64 ^ uint64(seed)
	// Mix the seed's high bits back in so seeds differing only above bit
	// 31 still produce different rings.
	h = (h ^ (uint64(seed) >> 32)) * prime64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return h
}
