package proxclient

import (
	"context"
	"net/http"

	"metricprox/internal/prox"
	"metricprox/internal/service/api"
)

// RemoteKNN runs the kNN-graph builder server-side — one round-trip for
// the whole problem — and returns the graph in prox's shape.
func (s *Session) RemoteKNN(ctx context.Context, k int) ([][]prox.Neighbor, error) {
	var resp api.KNNResponse
	err := s.c.do(ctx, http.MethodPost, s.path("knn"), api.KNNRequest{K: k}, &resp)
	if err != nil {
		return nil, err
	}
	rows := make([][]prox.Neighbor, len(resp.Rows))
	for u, row := range resp.Rows {
		ns := make([]prox.Neighbor, len(row))
		for x, wn := range row {
			ns[x] = prox.Neighbor{ID: wn.ID, Dist: float64(wn.D)}
		}
		rows[u] = ns
	}
	return rows, nil
}

// SearchParams carries the optional knobs of a remote approximate-kNN
// search (api.SearchRequest). The zero value asks for the server
// defaults; build-time fields (M, EfConstruction, Seed) must agree with
// the session's already-built graph or the server answers 409/conflict.
type SearchParams struct {
	// EfSearch is the query beam width; 0 means the server default.
	EfSearch int
	// M is the graph's links-per-node parameter; 0 means the server
	// default. Only consulted when this request triggers the build.
	M int
	// EfConstruction is the insertion beam width; 0 means the server
	// default. Build-only, like M.
	EfConstruction int
	// Seed drives the insertion order; 0 means the session's create seed.
	// Build-only, like M.
	Seed int64
}

// RemoteSearch answers an approximate k-nearest-neighbour query for
// object q over the session's server-side navigable search graph,
// building the graph on the daemon's side if this is the session's first
// search. The returned neighbours arrive in canonical (distance, id)
// order with exact distances; each one is committed to the local mirror
// (a server-resolved distance is permanently true), so later primitive
// calls touching those pairs decide locally. built reports whether this
// request paid for the construction.
//
// The alternative — running nsw.Build and Graph.Search client-side
// against the Session view — produces the byte-identical graph at many
// round-trips; RemoteSearch is the one-round-trip form, exactly like
// RemoteKNN next to prox.KNNGraph.
func (s *Session) RemoteSearch(ctx context.Context, q, k int, p SearchParams) (ns []prox.Neighbor, built bool, err error) {
	var resp api.SearchResponse
	err = s.c.do(ctx, http.MethodPost, s.path("search"), api.SearchRequest{
		Q:              q,
		K:              k,
		EfSearch:       p.EfSearch,
		M:              p.M,
		EfConstruction: p.EfConstruction,
		Seed:           p.Seed,
	}, &resp)
	if err != nil {
		return nil, false, err
	}
	ns = make([]prox.Neighbor, len(resp.Neighbors))
	for x, wn := range resp.Neighbors {
		d := float64(wn.D)
		ns[x] = prox.Neighbor{ID: wn.ID, Dist: d}
		s.noteDist(q, wn.ID, d)
	}
	return ns, resp.Built, nil
}
