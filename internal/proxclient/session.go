package proxclient

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"metricprox/internal/core"
	"metricprox/internal/service/api"
)

// SessionOptions configures CreateSession.
type SessionOptions struct {
	// Landmarks is the bootstrap landmark count; 0 means the server default
	// (log2 n).
	Landmarks int
	// Seed drives the server-side landmark choice.
	Seed int64
	// Bootstrap resolves the landmark rows up front, server-side.
	Bootstrap bool
	// NoCache disables the local known-distance mirror. Every primitive
	// then round-trips. Exists so the ext11 experiment can measure the
	// naive client; production callers should leave it false.
	NoCache bool
	// NoPrefetch makes PrefetchBounds a no-op; see NoCache.
	NoPrefetch bool
	// SlackEps declares the daemon's oracle a near-metric with additive
	// margin ε (server-side core.SlackPolicy.Additive). Only
	// single-triangle schemes accept it.
	SlackEps float64
	// SlackRatio declares a multiplicative factor ρ ≥ 1; 0 means none.
	SlackRatio float64
	// SlackAuto lets the server grow ε as its auditor observes larger
	// margins; the mirror watches the served ε and drops cached intervals
	// on escalation.
	SlackAuto bool
	// Audit attaches a server-side violation auditor without slack
	// (strict mode).
	Audit bool
}

// Session is a remote session hosted by metricproxd, shaped like an
// in-process session: it implements core.View, core.FallibleView and
// core.BoundsPrefetcher, so the prox builders run against it unmodified.
//
// Correctness model: the server session is the source of truth; the client
// keeps a mirror of facts it has already paid round-trips for — resolved
// distances and the loosest-known interval bounds. A locally decided
// comparison uses only facts that are permanently true (a resolved
// distance never changes; server bounds only tighten, so a cached bound is
// a stale-but-sound bound), and decides through core's kernel
// (core.Interval), the same rules the server applies. Decisions made from
// sound bounds are the same decisions the server would make, which is why
// remote runs stay bit-identical to in-process runs. Failures follow
// core's error model: every failed resolving round-trip latches
// OracleErr, and the never-failing methods degrade through a
// core.Degrader.
//
// The mutex guards only the mirror maps and is never held across an HTTP
// round-trip.
type Session struct {
	c    *Client
	name string
	n    int
	max  float64

	noCache    bool
	noPrefetch bool

	mu        sync.Mutex
	known     map[uint64]float64
	bounds    map[uint64]core.Interval // cached intervals of unresolved pairs
	eps       float64                  // high-water slack ε observed in server responses
	oracleErr error

	deg core.Degrader
}

// CreateSession creates (or attaches to) the named session on the daemon
// and returns the client-side view of it.
func CreateSession(ctx context.Context, c *Client, name, scheme string, opts SessionOptions) (*Session, error) {
	req := api.CreateSessionRequest{
		Name:       name,
		Scheme:     scheme,
		Landmarks:  opts.Landmarks,
		Seed:       opts.Seed,
		Bootstrap:  opts.Bootstrap,
		SlackEps:   api.WireFloat(opts.SlackEps),
		SlackRatio: api.WireFloat(opts.SlackRatio),
		SlackAuto:  opts.SlackAuto,
		Audit:      opts.Audit,
	}
	var info api.SessionInfo
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &info); err != nil {
		return nil, err
	}
	s := &Session{
		c:          c,
		name:       name,
		n:          info.N,
		max:        float64(info.MaxDistance),
		noCache:    opts.NoCache,
		noPrefetch: opts.NoPrefetch,
		known:      make(map[uint64]float64),
		bounds:     make(map[uint64]core.Interval),
	}
	s.deg = core.NewDegrader(s.localBounds, s.latch)
	return s, nil
}

// Name returns the session's registry name on the daemon.
func (s *Session) Name() string { return s.name }

// pairKey normalises (i, j) to i < j and packs it into one map key.
func pairKey(i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(uint32(i))<<32 | uint64(uint32(j))
}

// path returns the session-scoped endpoint path.
func (s *Session) path(op string) string {
	return "/v1/sessions/" + s.name + "/" + op
}

// N returns the universe size.
func (s *Session) N() int { return s.n }

// MaxDistance returns the daemon's a-priori distance cap.
func (s *Session) MaxDistance() float64 { return s.max }

// local reads the mirror's interval for (i, j) and whether it is a
// resolved distance, [d, d]; a self-pair is resolved at 0, and a pair with
// no facts gets the trivial [0, MaxDistance].
func (s *Session) local(i, j int) (core.Interval, bool) {
	if i == j {
		return core.Interval{}, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.localLocked(pairKey(i, j))
}

func (s *Session) localLocked(key uint64) (core.Interval, bool) {
	if d, ok := s.known[key]; ok {
		return core.Interval{LB: d, UB: d}, true
	}
	iv := core.Interval{LB: 0, UB: s.max}
	if c, ok := s.bounds[key]; ok {
		if c.LB > iv.LB {
			iv.LB = c.LB
		}
		if c.UB < iv.UB {
			iv.UB = c.UB
		}
	}
	return iv, false
}

// localBounds is local as the Degrader's no-round-trip bounds.
func (s *Session) localBounds(i, j int) (lb, ub float64) {
	iv, _ := s.local(i, j)
	return iv.LB, iv.UB
}

// noteDist commits a server-resolved distance to the mirror.
func (s *Session) noteDist(i, j int, d float64) {
	if s.noCache || i == j {
		return
	}
	s.mu.Lock()
	key := pairKey(i, j)
	s.known[key] = d
	delete(s.bounds, key)
	s.mu.Unlock()
}

// noteLowerBound raises the mirror's lower bound for (i, j) — used after
// the server proves dist(i, j) ≥ c.
func (s *Session) noteLowerBound(i, j int, c float64) {
	if s.noCache || i == j {
		return
	}
	s.mu.Lock()
	key := pairKey(i, j)
	if _, ok := s.known[key]; !ok {
		if iv, ok := s.bounds[key]; !ok {
			s.bounds[key] = core.Interval{LB: c, UB: s.max}
		} else if c > iv.LB {
			iv.LB = c
			s.bounds[key] = iv
		}
	}
	s.mu.Unlock()
}

// noteBounds overwrites the mirror's interval with a fresh server
// interval. At a fixed slack ε server bounds only tighten, so replacing
// the cached interval wholesale is sound; under an auto slack policy ε
// itself can grow, at which point older (narrower) cached intervals stop
// being sound for the new contract — every bounds response therefore
// carries the ε it was relaxed by, and the mirror drops all cached
// intervals when it sees ε rise (resolved distances in known are exact
// oracle values and survive the escalation). Detection is lazy — the
// mirror learns of a rise on its next bounds round-trip — which is sound
// for the same reason core's auto mode is: decisions already made used
// the contract as declared at the time, and every later decision uses
// intervals refreshed under the larger ε. A collapsed interval is
// deliberately NOT promoted to a known distance: bound arithmetic can sit
// one ulp away from the resolved value, and the mirror's known map must
// hold exact server resolutions only — bounds are for decisions, never
// for values (the same discipline core.Session keeps).
func (s *Session) noteBounds(i, j int, lb, ub, eps float64) {
	if s.noCache || i == j {
		return
	}
	s.mu.Lock()
	if eps > s.eps {
		s.bounds = make(map[uint64]core.Interval)
		s.eps = eps
	}
	key := pairKey(i, j)
	if _, ok := s.known[key]; !ok {
		s.bounds[key] = core.Interval{LB: lb, UB: ub}
	}
	s.mu.Unlock()
}

// latch records the first remote resolution failure, mirroring
// core.Session's sticky OracleErr.
func (s *Session) latch(err error) {
	s.mu.Lock()
	if s.oracleErr == nil {
		s.oracleErr = err
	}
	s.mu.Unlock()
}

// OracleErr returns the first latched resolution failure, nil while every
// answer so far is exact.
func (s *Session) OracleErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.oracleErr
}

// Known reports a pair resolved in the local mirror. A pair the server
// resolved but this client never asked about reports false — the miss
// falls through to Dist, which returns the identical memoised value, so
// answers are unaffected.
func (s *Session) Known(i, j int) (float64, bool) {
	if iv, known := s.local(i, j); known {
		return iv.LB, true
	}
	return 0, false
}

// Bounds returns interval bounds for (i, j): the mirror's if it has any
// facts, otherwise one round-trip to the server's bounds endpoint (cached
// for next time). The interval may be staler (looser) than the server's
// current one; it is never wrong.
func (s *Session) Bounds(i, j int) (lb, ub float64) {
	if i == j {
		return 0, 0
	}
	if !s.noCache {
		s.mu.Lock()
		key := pairKey(i, j)
		_, cached := s.bounds[key]
		iv, known := s.localLocked(key)
		s.mu.Unlock()
		if known || cached {
			return iv.LB, iv.UB
		}
	}
	var resp api.BoundsResponse
	err := s.c.do(context.Background(), http.MethodPost, s.path("bounds"), api.PairRequest{I: i, J: j}, &resp)
	if err != nil {
		// Bounds never fails in core; fall back to the trivial interval.
		return 0, s.max
	}
	s.noteBounds(i, j, float64(resp.LB), float64(resp.UB), float64(resp.Eps))
	return float64(resp.LB), float64(resp.UB)
}

// SlackEps returns the highest additive slack ε the server has reported
// in bounds responses so far — 0 for a strict session.
func (s *Session) SlackEps() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eps
}

// post sends one resolving primitive (dist, less, lessthan, distifless)
// to the server session. A failure is latched as OracleErr before it is
// returned, as core latches every failed resolution.
func (s *Session) post(op string, in, out any) error {
	err := s.c.do(context.Background(), http.MethodPost, s.path(op), in, out)
	if err != nil {
		s.latch(err)
	}
	return err
}

// DistErr resolves the exact distance, round-tripping only on a mirror
// miss.
func (s *Session) DistErr(i, j int) (float64, error) {
	if iv, known := s.local(i, j); known {
		return iv.LB, nil
	}
	var resp api.DistResponse
	if err := s.post("dist", api.PairRequest{I: i, J: j}, &resp); err != nil {
		return 0, err
	}
	d := float64(resp.D)
	s.noteDist(i, j, d)
	return d, nil
}

// Dist is DistErr degraded to the legacy contract through the Degrader:
// on failure it returns the mirror's bounds-midpoint estimate.
func (s *Session) Dist(i, j int) float64 {
	d, err := s.DistErr(i, j)
	return s.deg.Dist(d, err, i, j)
}

// less is the Less primitive: it decides from the mirror through the
// kernel, and otherwise asks the server.
func (s *Session) less(i, j, k, l int) (bool, core.Outcome, error) {
	a, knownA := s.local(i, j)
	b, knownB := s.local(k, l)
	if r, settled, _ := a.Less(b); settled {
		if knownA && knownB {
			return r, core.OutcomeExact, nil
		}
		return r, core.OutcomeBounds, nil
	}
	if i == j || k == l {
		// The comparison endpoint rejects self-pairs; resolve the real
		// pair instead (a self-pair's distance is locally known to be 0).
		d1, err := s.DistErr(i, j)
		if err != nil {
			return false, core.OutcomeUnavailable, err
		}
		d2, err := s.DistErr(k, l)
		if err != nil {
			return false, core.OutcomeUnavailable, err
		}
		return d1 < d2, core.OutcomeExact, nil
	}
	var resp api.LessResponse
	if err := s.post("less", api.LessRequest{I: i, J: j, K: k, L: l}, &resp); err != nil {
		return false, core.OutcomeUnavailable, err
	}
	return resp.Less, core.OutcomeExact, nil
}

// LessErr reports dist(i,j) < dist(k,l), deciding locally when the mirror
// can and round-tripping otherwise.
func (s *Session) LessErr(i, j, k, l int) (bool, error) {
	r, _, err := s.less(i, j, k, l)
	return r, err
}

// LessOutcome is Less plus an outcome report; on a remote failure it
// degrades through the Degrader, like core.Session.
func (s *Session) LessOutcome(i, j, k, l int) (bool, core.Outcome) {
	r, out, err := s.less(i, j, k, l)
	return s.deg.Less(r, out, err, i, j, k, l)
}

// Less reports dist(i,j) < dist(k,l), degrading like the legacy core
// method on failure.
func (s *Session) Less(i, j, k, l int) bool {
	r, _ := s.LessOutcome(i, j, k, l)
	return r
}

// LessThanErr reports dist(i,j) < c with error propagation.
func (s *Session) LessThanErr(i, j int, c float64) (bool, error) {
	a, _ := s.local(i, j)
	if r, settled, _ := a.LessThan(c); settled {
		return r, nil
	}
	var resp api.LessResponse
	if err := s.post("lessthan", api.LessThanRequest{I: i, J: j, C: api.WireFloat(c)}, &resp); err != nil {
		return false, err
	}
	if !resp.Less {
		s.noteLowerBound(i, j, c)
	}
	return resp.Less, nil
}

// LessThan reports dist(i,j) < c, degrading like the legacy core method on
// failure.
func (s *Session) LessThan(i, j int, c float64) bool {
	r, err := s.LessThanErr(i, j, c)
	return s.deg.LessThan(r, err, i, j, c)
}

// DistIfLessErr resolves dist(i,j) only when it cannot be proved ≥ c,
// with error propagation. When the server answers "not less", the mirror's
// lower bound rises to c, so repeated probes against non-increasing
// thresholds (Prim's relaxation pattern) stop round-tripping.
func (s *Session) DistIfLessErr(i, j int, c float64) (float64, bool, error) {
	a, known := s.local(i, j)
	if known {
		return a.LB, a.LB < c, nil
	}
	if _, settled, _ := a.DistIfLess(c); settled {
		return 0, false, nil
	}
	var resp api.DistIfLessResponse
	if err := s.post("distifless", api.DistIfLessRequest{I: i, J: j, C: api.WireFloat(c)}, &resp); err != nil {
		return 0, false, err
	}
	if resp.Less {
		d := float64(resp.D)
		s.noteDist(i, j, d)
		return d, true, nil
	}
	s.noteLowerBound(i, j, c)
	return 0, false, nil
}

// DistIfLess is DistIfLessErr degraded to the legacy contract.
func (s *Session) DistIfLess(i, j int, c float64) (float64, bool) {
	d, less, err := s.DistIfLessErr(i, j, c)
	return s.deg.DistIfLess(d, less, err, i, j, c)
}

// batchChunk is the largest number of ops packed into one batch
// round-trip by PrefetchBounds and ResolveBatch.
const batchChunk = 2048

// unknown returns the distinct non-self pairs of pairs the mirror has not
// resolved, in order of first appearance. Builders announce candidate
// lists with repeats; one op per unordered pair is enough.
func (s *Session) unknown(pairs []core.Pair) []core.Pair {
	var out []core.Pair
	seen := make(map[uint64]bool, len(pairs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range pairs {
		if p.A == p.B {
			continue
		}
		k := pairKey(p.A, p.B)
		if _, ok := s.known[k]; ok || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, p)
	}
	return out
}

// batch sends one op of kind op per pair to the batch endpoint, in
// chunks of at most batchChunk, and hands each op's result to each. It
// stops at the first failed round-trip and returns its error.
func (s *Session) batch(op string, pairs []core.Pair, each func(p core.Pair, res api.BatchResult)) error {
	for len(pairs) > 0 {
		chunk := pairs[:min(len(pairs), batchChunk)]
		pairs = pairs[len(chunk):]
		ops := make([]api.BatchOp, len(chunk))
		for x, p := range chunk {
			ops[x] = api.BatchOp{Op: op, I: p.A, J: p.B}
		}
		var resp api.BatchResponse
		err := s.c.do(context.Background(), http.MethodPost, s.path("batch"), api.BatchRequest{Ops: ops}, &resp)
		if err == nil && len(resp.Results) != len(ops) {
			err = fmt.Errorf("proxclient: batch answered %d results for %d ops", len(resp.Results), len(ops))
		}
		if err != nil {
			return err
		}
		for x, res := range resp.Results {
			each(chunk[x], res)
		}
	}
	return nil
}

// PrefetchBounds warms the mirror for pairs with batched bounds reads —
// the core.BoundsPrefetcher hint. It is purely an optimisation: failures
// are swallowed and already-known pairs are skipped, so it can never
// change an answer.
func (s *Session) PrefetchBounds(pairs []core.Pair) {
	if s.noPrefetch || s.noCache {
		return
	}
	// A failed hint is just a cold cache.
	_ = s.batch(api.OpBounds, s.unknown(pairs), func(p core.Pair, res api.BatchResult) {
		if res.Err == "" {
			s.noteBounds(p.A, p.B, float64(res.LB), float64(res.UB), float64(res.Eps))
		}
	})
}

// ResolveBatch resolves the pairs the mirror does not know with dist ops
// in one batch round-trip (per batchChunk pairs), which the server
// resolves with their oracle calls in flight together — the
// core.BatchResolver extension. Answers and the server's oracle-call
// count are what per-pair DistErr calls would give. Like every failed
// resolving round-trip, a failure is latched as OracleErr; the error
// returned is the first failure in input order, and failed pairs stay
// unresolved. A no-op under NoCache or NoPrefetch, so the naive client
// keeps paying one round-trip per primitive.
func (s *Session) ResolveBatch(pairs []core.Pair) error {
	if s.noPrefetch || s.noCache {
		return nil
	}
	var first error
	err := s.batch(api.OpDist, s.unknown(pairs), func(p core.Pair, res api.BatchResult) {
		if res.Err == "" {
			s.noteDist(p.A, p.B, float64(res.D))
		} else if first == nil {
			first = &APIError{Status: http.StatusOK, Code: res.Err,
				Message: fmt.Sprintf("batch dist(%d,%d) failed", p.A, p.B)}
		}
	})
	if first == nil {
		first = err
	}
	if first != nil {
		s.latch(first)
	}
	return first
}

// Stats snapshots the server session's statistics over the wire; a
// transport failure yields the zero Stats rather than an error, matching
// the View contract.
func (s *Session) Stats() core.Stats {
	var resp api.StatsResponse
	err := s.c.do(context.Background(), http.MethodGet, "/v1/sessions/"+s.name, nil, &resp)
	if err != nil {
		return core.Stats{}
	}
	return core.Stats{
		OracleCalls:         resp.OracleCalls,
		BootstrapCalls:      resp.BootstrapCalls,
		BoundProbes:         resp.BoundProbes,
		SavedComparisons:    resp.SavedComparisons,
		ResolvedComparisons: resp.ResolvedComparisons,
		CacheHits:           resp.CacheHits,
		Retries:             resp.Retries,
		Timeouts:            resp.Timeouts,
		BreakerOpens:        resp.BreakerOpens,
		DegradedAnswers:     resp.DegradedAnswers,
		StoreErrors:         resp.StoreErrors,
		SlackResolved:       resp.SlackResolved,
		Violations:          resp.Violations,
	}
}

// Bootstrap asks the server to resolve the given landmark rows up front.
func (s *Session) Bootstrap(ctx context.Context, landmarks []int) (int64, error) {
	var resp api.BootstrapResponse
	err := s.c.do(ctx, http.MethodPost, s.path("bootstrap"),
		api.BootstrapRequest{Landmarks: landmarks}, &resp)
	if err != nil {
		return 0, err
	}
	return resp.Calls, nil
}

// Delete evicts the session server-side. The local mirror stays valid for
// reads but further round-trips will 404.
func (s *Session) Delete(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, "/v1/sessions/"+s.name, nil, nil)
}

var (
	_ core.View             = (*Session)(nil)
	_ core.FallibleView     = (*Session)(nil)
	_ core.BoundsPrefetcher = (*Session)(nil)
	_ core.BatchResolver    = (*Session)(nil)
)
