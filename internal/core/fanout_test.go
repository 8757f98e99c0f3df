package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"metricprox/internal/bounds"
	"metricprox/internal/cachestore"
	"metricprox/internal/datasets"
	"metricprox/internal/faultmetric"
	"metricprox/internal/fcmp"
	"metricprox/internal/metric"
	"metricprox/internal/resilient"
)

// jitterOracle answers from a planar space after a pair-dependent sleep
// of up to ~250µs, so fanned-out calls complete in a scrambled order and
// anything that commits in completion order instead of input order shows.
type jitterOracle struct{ o *metric.Oracle }

func (j jitterOracle) Len() int { return j.o.Len() }

func (j jitterOracle) DistanceCtx(ctx context.Context, a, b int) (float64, error) {
	time.Sleep(time.Duration((a*7919+b*104729)%250) * time.Microsecond)
	return j.o.DistanceCtx(ctx, a, b)
}

// referenceBootstrap is the sequential bootstrap the fan-out replaces:
// DistErr on every pair in bounds.EdgesForBootstrap order (through the
// scheme's own Bootstrapper where it has one, which starts with the same
// loop).
func referenceBootstrap(t *testing.T, s *Session, landmarks []int) {
	t.Helper()
	s.phase.Store(phaseBootstrap)
	defer s.phase.Store(phaseRun)
	resolve := func(i, j int) float64 {
		d, err := s.DistErr(i, j)
		if err != nil {
			t.Fatalf("reference DistErr(%d,%d): %v", i, j, err)
		}
		return d
	}
	if b, ok := s.b.(bounds.Bootstrapper); ok {
		b.Bootstrap(resolve, landmarks)
		return
	}
	for _, e := range bounds.EdgesForBootstrap(s.N(), landmarks) {
		resolve(e.U, e.V)
	}
}

// TestBootstrapFanOutMatchesSequentialLoop: a fan-out bootstrap commits
// in edge order, so the cache-store log is byte-identical to the
// sequential loop's and every pair's Bounds are identical, for every
// scheme that keeps bound tables.
func TestBootstrapFanOutMatchesSequentialLoop(t *testing.T) {
	const n = 40
	space := datasets.SFPOIPlanar(n, 5)
	lms := PickLandmarks(n, 5, 5)
	schemes := []Scheme{SchemeNoop, SchemeSPLUB, SchemeTri, SchemeADM, SchemeLAESA, SchemeTLAESA, SchemeDFT, SchemeHybrid}
	for _, scheme := range schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			dir := t.TempDir()
			build := func(name string) (*Session, *cachestore.Store, string) {
				path := filepath.Join(dir, name)
				store, err := cachestore.Create(path, n)
				if err != nil {
					t.Fatal(err)
				}
				s := NewFallibleSessionWithLandmarks(jitterOracle{metric.NewOracle(space)}, scheme, lms)
				if err := s.AttachStore(store); err != nil {
					t.Fatal(err)
				}
				return s, store, path
			}
			fan, fanStore, fanPath := build("fan.cache")
			ref, refStore, refPath := build("ref.cache")
			if _, err := fan.BootstrapErr(lms); err != nil {
				t.Fatalf("fan-out bootstrap: %v", err)
			}
			referenceBootstrap(t, ref, lms)
			for _, st := range []*cachestore.Store{fanStore, refStore} {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
			fanBytes, err := os.ReadFile(fanPath)
			if err != nil {
				t.Fatal(err)
			}
			refBytes, err := os.ReadFile(refPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fanBytes, refBytes) {
				t.Fatalf("cache-store bytes differ: fan-out %d B, sequential %d B", len(fanBytes), len(refBytes))
			}
			if f, r := fan.Stats(), ref.Stats(); f.OracleCalls != r.OracleCalls || f.BootstrapCalls != r.BootstrapCalls {
				t.Fatalf("calls: fan-out %d (bootstrap %d), sequential %d (bootstrap %d)",
					f.OracleCalls, f.BootstrapCalls, r.OracleCalls, r.BootstrapCalls)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					flb, fub := fan.Bounds(i, j)
					rlb, rub := ref.Bounds(i, j)
					if !fcmp.ExactEq(flb, rlb) || !fcmp.ExactEq(fub, rub) {
						t.Fatalf("Bounds(%d,%d): fan-out [%v,%v], sequential [%v,%v]", i, j, flb, fub, rlb, rub)
					}
				}
			}
		})
	}
}

// TestResolveBatchCommitsLikeDistErr: ResolveBatch skips self-pairs,
// resolved pairs and duplicates, pays one call per remaining pair and
// commits exactly the values DistErr returns.
func TestResolveBatchCommitsLikeDistErr(t *testing.T) {
	const n = 30
	oracle := metric.NewOracle(datasets.SFPOIPlanar(n, 2))
	s := NewFallibleSession(jitterOracle{oracle}, SchemeTri)
	s.Dist(0, 1)
	pairs := []Pair{{0, 1}, {2, 2}, {0, 2}, {2, 0}, {3, 4}, {5, 6}, {6, 5}}
	if err := s.ResolveBatch(pairs); err != nil {
		t.Fatalf("ResolveBatch: %v", err)
	}
	if got := s.Stats().OracleCalls; got != 4 { // (0,1) earlier, then (0,2), (3,4), (5,6)
		t.Fatalf("OracleCalls = %d, want 4", got)
	}
	ref := NewSession(metric.NewOracle(datasets.SFPOIPlanar(n, 2)), SchemeTri)
	for _, p := range pairs {
		if p.A == p.B {
			continue
		}
		d, ok := s.Known(p.A, p.B)
		if !ok || !fcmp.ExactEq(d, ref.Dist(p.A, p.B)) {
			t.Fatalf("Known(%d,%d) = (%v,%v), want the exact distance", p.A, p.B, d, ok)
		}
	}
}

// TestResolveBatchFailureIsFirstInInputOrder: every pair is attempted
// once, successes are committed, failed pairs stay unresolved, and the
// error returned and latched is the earliest failed pair's.
func TestResolveBatchFailureIsFirstInInputOrder(t *testing.T) {
	fo := &pairFailer{base: gridSpace{n: 20}, fail: map[Pair]bool{{3, 9}: true, {1, 7}: true}}
	s := NewFallibleSession(fo, SchemeTri)
	pairs := []Pair{{0, 5}, {1, 7}, {2, 8}, {3, 9}, {4, 10}}
	err := s.ResolveBatch(pairs)
	if !errors.Is(err, ErrOracleUnavailable) || !errors.Is(err, errPairFailed{1, 7}) {
		t.Fatalf("err = %v, want the failure of pair (1,7)", err)
	}
	if !errors.Is(s.OracleErr(), errPairFailed{1, 7}) {
		t.Fatalf("OracleErr = %v, want the failure of pair (1,7)", s.OracleErr())
	}
	if got := s.Stats().OracleCalls; got != 3 {
		t.Fatalf("OracleCalls = %d, want the 3 successes", got)
	}
	if fo.calls() != 5 {
		t.Fatalf("oracle saw %d calls, want every pair attempted once (5)", fo.calls())
	}
	for _, p := range pairs {
		_, known := s.Known(p.A, p.B)
		if known == fo.fail[p] {
			t.Fatalf("pair %v: known = %v, failed = %v", p, known, fo.fail[p])
		}
	}
}

// TestBootstrapStopsDispatchOnFailure: during an outage every worker's
// first call fails, so a bootstrap of many rows makes at most one call
// per fan-out worker instead of one per pair.
func TestBootstrapStopsDispatchOnFailure(t *testing.T) {
	const n = 40
	fo := newScripted(n, 1<<30) // every call fails
	lms := []int{0, 13, 27}
	s := NewFallibleSessionWithLandmarks(fo, SchemeLAESA, lms)
	spent, err := s.BootstrapErr(lms)
	if !errors.Is(err, ErrOracleUnavailable) || spent != 0 {
		t.Fatalf("BootstrapErr = (%d, %v), want (0, ErrOracleUnavailable)", spent, err)
	}
	fo.mu.Lock()
	calls := fo.calls
	fo.mu.Unlock()
	if edges := len(bounds.EdgesForBootstrap(n, lms)); calls > fanOutWidth || calls >= edges {
		t.Fatalf("outage bootstrap made %d calls for %d pairs, want at most %d", calls, edges, fanOutWidth)
	}
}

// TestSharedResolveBatchSingleFlight: overlapping batches and scalar
// DistErr calls on the same pairs from many goroutines pay each pair
// exactly once, and every goroutine sees the committed values.
func TestSharedResolveBatchSingleFlight(t *testing.T) {
	const n = 24
	space := datasets.SFPOIPlanar(n, 4)
	inst := metric.NewInstrumented(space, 200*time.Microsecond)
	c := Share(NewSession(metric.NewOracle(inst), SchemeTri))
	var pairs []Pair
	for i := 0; i < 6; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, Pair{i, j})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				if err := c.ResolveBatch(pairs[w:]); err != nil {
					t.Errorf("ResolveBatch: %v", err)
				}
				return
			}
			for _, p := range pairs[w:] {
				if _, err := c.DistErr(p.B, p.A); err != nil {
					t.Errorf("DistErr: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if max := inst.MaxPairCalls(); max != 1 {
		t.Fatalf("a pair was paid %d times, want 1", max)
	}
	if got, want := c.Stats().OracleCalls, int64(inst.DistinctPairs()); got != want {
		t.Fatalf("OracleCalls = %d, oracle paid %d distinct pairs", got, want)
	}
	for _, p := range pairs {
		if d, ok := c.Known(p.A, p.B); !ok || !fcmp.ExactEq(d, space.Distance(p.A, p.B)) {
			t.Fatalf("pair %v not committed exactly: (%v, %v)", p, d, ok)
		}
	}
}

// errPairFailed is pairFailer's scripted failure for one pair.
type errPairFailed Pair

func (e errPairFailed) Error() string { return "scripted pair failure" }

// pairFailer fails every call for a scripted set of pairs.
type pairFailer struct {
	base gridSpace
	fail map[Pair]bool

	mu sync.Mutex
	n  int
}

func (f *pairFailer) Len() int { return f.base.Len() }

func (f *pairFailer) DistanceCtx(_ context.Context, i, j int) (float64, error) {
	f.mu.Lock()
	f.n++
	f.mu.Unlock()
	if f.fail[Pair{i, j}] {
		return 0, errPairFailed{i, j}
	}
	return f.base.Distance(i, j), nil
}

func (f *pairFailer) calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// orderRecorder is an order-sensitive oracle that records the order its
// calls arrive in.
type orderRecorder struct {
	jitterOracle
	mu    sync.Mutex
	order []Pair
}

func (r *orderRecorder) OrderSensitive() bool { return true }

func (r *orderRecorder) DistanceCtx(ctx context.Context, a, b int) (float64, error) {
	r.mu.Lock()
	r.order = append(r.order, Pair{A: a, B: b})
	r.mu.Unlock()
	return r.jitterOracle.DistanceCtx(ctx, a, b)
}

// TestFanOutKeepsOrderSensitiveOracleSequential: an oracle that declares
// metric.OrderSensitive sees a fan-out bootstrap's and ResolveBatch's
// calls one at a time in exactly the sequential loop's order, so a
// road network's history-dependent last bits come out as the loop's.
func TestFanOutKeepsOrderSensitiveOracleSequential(t *testing.T) {
	const n = 40
	space := datasets.SFPOIPlanar(n, 5)
	lms := PickLandmarks(n, 5, 5)
	row := make([]Pair, 0, n)
	for v := 0; v < n; v++ {
		row = append(row, Pair{A: 7, B: v})
	}
	build := func() (*Session, *orderRecorder) {
		rec := &orderRecorder{jitterOracle: jitterOracle{metric.NewOracle(space)}}
		return NewFallibleSessionWithLandmarks(rec, SchemeTri, lms), rec
	}
	fan, fanRec := build()
	if _, err := fan.BootstrapErr(lms); err != nil {
		t.Fatal(err)
	}
	if err := fan.ResolveBatch(row); err != nil {
		t.Fatal(err)
	}
	ref, refRec := build()
	referenceBootstrap(t, ref, lms)
	for _, p := range row {
		if _, err := ref.DistErr(p.A, p.B); err != nil {
			t.Fatal(err)
		}
	}
	if len(fanRec.order) != len(refRec.order) {
		t.Fatalf("fan-out made %d calls, the sequential loop %d", len(fanRec.order), len(refRec.order))
	}
	for x := range refRec.order {
		if fanRec.order[x] != refRec.order[x] {
			t.Fatalf("call %d: fan-out asked %v, the sequential loop %v", x, fanRec.order[x], refRec.order[x])
		}
	}
}

// TestRoadNetIsOrderSensitiveThroughWrappers: the road network declares
// order sensitivity and every oracle wrapper forwards it; a planar space
// does not declare it, so its batches still fan out.
func TestRoadNetIsOrderSensitiveThroughWrappers(t *testing.T) {
	road, planar := datasets.SFPOI(30, 1), datasets.SFPOIPlanar(30, 1)
	wrap := map[string]func(metric.Space) any{
		"space":       func(s metric.Space) any { return s },
		"Oracle":      func(s metric.Space) any { return metric.NewOracle(s) },
		"faultmetric": func(s metric.Space) any { return faultmetric.New(s, faultmetric.Config{}) },
		"resilient": func(s metric.Space) any {
			return resilient.New(metric.NewOracle(s), resilient.Policy{})
		},
	}
	for name, w := range wrap {
		if !metric.IsOrderSensitive(w(road)) {
			t.Errorf("%s over the road network does not declare order sensitivity", name)
		}
		if metric.IsOrderSensitive(w(planar)) {
			t.Errorf("%s over the planar space declares order sensitivity", name)
		}
	}
	if s := NewFallibleSession(metric.NewOracle(road), SchemeTri); !s.inOrder {
		t.Error("a road-network session fans its batches out")
	}
}
