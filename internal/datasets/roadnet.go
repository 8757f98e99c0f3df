package datasets

import (
	"math/rand"
	"sync"

	"metricprox/internal/pqueue"
	"metricprox/internal/unionfind"
)

// RoadNet is a metric.Space whose distances are shortest-path lengths over
// a synthetic road network: a jittered grid graph with per-road detour
// factors and a fraction of roads removed (while preserving connectivity).
// It is the library's stand-in for the Google Maps driving-distance oracle
// used by the paper's SF POI and UrbanGB datasets: unlike plain planar
// norms, shortest paths over a thinned, unevenly weighted grid exhibit the
// detour structure of real road distances, so triangle-inequality bounds
// are realistically loose and the bound schemes separate the way the
// paper reports.
//
// Distance calls run Dijkstra over the road graph (genuinely expensive,
// like the API they simulate) with per-object row caching so that repeated
// resolutions of the same source stay affordable. RoadNet is safe for
// concurrent use.
type RoadNet struct {
	objects []int // object index -> road-graph node
	adj     [][]roadEdge
	scale   float64 // normalises all object distances into [0,1]

	mu   sync.Mutex
	rows map[int][]float64 // road node -> SSSP row (scaled)
}

type roadEdge struct {
	to int
	w  float64
}

// roadNetConfig controls synthesis.
type roadNetConfig struct {
	grid      int     // grid side; grid² road nodes
	keepExtra float64 // probability of keeping a non-spanning-tree road
	clustered bool    // cluster object placement (UrbanGB style)
}

// SFPOI returns n points of interest placed uniformly over a synthetic
// city road network, with shortest-path driving distance (normalised into
// [0,1]). This is the paper's SF POI / Google Maps substitution.
func SFPOI(n int, seed int64) *RoadNet {
	return newRoadNet(n, seed, roadNetConfig{grid: 48, keepExtra: 0.55})
}

// UrbanGB returns n points clustered around a handful of urban cores of a
// synthetic road network — the paper's UrbanGB substitution. The clustered
// placement reproduces the skewed edge-length distribution that drives the
// larger save-ups the paper reports on UrbanGB.
func UrbanGB(n int, seed int64) *RoadNet {
	return newRoadNet(n, seed, roadNetConfig{grid: 48, keepExtra: 0.55, clustered: true})
}

func newRoadNet(n int, seed int64, cfg roadNetConfig) *RoadNet {
	rng := rand.New(rand.NewSource(seed))
	g := cfg.grid
	nodes := g * g
	if n > nodes {
		// Degenerate demand: grow the grid to fit distinct placements.
		for g*g < n {
			g++
		}
		nodes = g * g
	}

	// Candidate roads: the lattice edges of the grid.
	type cand struct{ a, b int }
	var cands []cand
	id := func(x, y int) int { return y*g + x }
	for y := 0; y < g; y++ {
		for x := 0; x < g; x++ {
			if x+1 < g {
				cands = append(cands, cand{id(x, y), id(x+1, y)})
			}
			if y+1 < g {
				cands = append(cands, cand{id(x, y), id(x, y+1)})
			}
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })

	// Keep a random spanning tree (connectivity), then each remaining road
	// with probability keepExtra; every road gets a detour factor.
	adj := make([][]roadEdge, nodes)
	dsu := unionfind.New(nodes)
	addRoad := func(a, b int) {
		w := 1 + 1.5*rng.Float64()
		adj[a] = append(adj[a], roadEdge{to: b, w: w})
		adj[b] = append(adj[b], roadEdge{to: a, w: w})
	}
	var extras []cand
	for _, c := range cands {
		if dsu.Union(c.a, c.b) {
			addRoad(c.a, c.b)
		} else {
			extras = append(extras, c)
		}
	}
	for _, c := range extras {
		if rng.Float64() < cfg.keepExtra {
			addRoad(c.a, c.b)
		}
	}

	r := &RoadNet{adj: adj, rows: make(map[int][]float64), scale: 1}

	// Place objects on distinct road nodes.
	used := make(map[int]bool, n)
	place := func(node int) bool {
		if node < 0 || node >= nodes || used[node] {
			return false
		}
		used[node] = true
		r.objects = append(r.objects, node)
		return true
	}
	if cfg.clustered {
		const cities = 8
		centers := make([][2]int, cities)
		for c := range centers {
			centers[c] = [2]int{rng.Intn(g), rng.Intn(g)}
		}
		for len(r.objects) < n {
			if rng.Float64() < 0.9 {
				c := centers[rng.Intn(cities)]
				x := c[0] + int(rng.NormFloat64()*float64(g)/24)
				y := c[1] + int(rng.NormFloat64()*float64(g)/24)
				place(id(clampInt(x, 0, g-1), clampInt(y, 0, g-1)))
			} else {
				place(rng.Intn(nodes))
			}
		}
	} else {
		for len(r.objects) < n {
			place(rng.Intn(nodes))
		}
	}

	// Normalise: the graph diameter is at most twice any eccentricity.
	ecc := 0.0
	for _, d := range r.ssspRaw(r.objects[0]) {
		if d > ecc {
			ecc = d
		}
	}
	r.scale = 1 / (2 * ecc)
	return r
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Len returns the number of objects.
func (r *RoadNet) Len() int { return len(r.objects) }

// OrderSensitive reports true: Distance reads a pair from whichever
// end's shortest-path row was cached first, and the two sums can differ
// in the last bit.
func (r *RoadNet) OrderSensitive() bool { return true }

// Node returns the road-graph node an object is placed on.
func (r *RoadNet) Node(i int) int { return r.objects[i] }

// Distance returns the scaled shortest-path distance between objects i
// and j, running (and caching) a Dijkstra over the road network.
func (r *RoadNet) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	src, dst := r.objects[i], r.objects[j]
	r.mu.Lock()
	row, ok := r.rows[src]
	if !ok {
		if row, ok = r.rows[dst]; ok {
			src, dst = dst, src
		}
	}
	if !ok {
		row = r.ssspRaw(src)
		r.rows[src] = row
	}
	d := row[dst] * r.scale
	r.mu.Unlock()
	return d
}

// ssspRaw computes unscaled shortest paths from a road node.
func (r *RoadNet) ssspRaw(src int) []float64 {
	nodes := len(r.adj)
	dist := make([]float64, nodes)
	for i := range dist {
		dist[i] = -1
	}
	q := pqueue.NewIndexedMin(nodes)
	q.Push(src, 0)
	dist[src] = 0
	visited := make([]bool, nodes)
	for q.Len() > 0 {
		u, du, _ := q.Pop()
		if visited[u] {
			continue
		}
		visited[u] = true
		dist[u] = du
		for _, e := range r.adj[u] {
			if !visited[e.to] {
				nd := du + e.w
				if dist[e.to] < 0 || nd < dist[e.to] {
					dist[e.to] = nd
					q.Push(e.to, nd)
				}
			}
		}
	}
	for i := range dist {
		if dist[i] < 0 {
			dist[i] = 0 // unreachable cannot happen (spanning tree), defensively 0
		}
	}
	return dist
}
