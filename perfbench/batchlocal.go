package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/prox"
)

// batch-local is the paper's in-process setting at a cheap oracle: one
// goroutine in a closed loop, each op a fresh sequential Tri session over
// a new planar universe, bootstrapped on ⌊log2 n⌋ landmarks, running the
// kNN graph, Prim's MST and PAM. No network is involved, so codec or
// round-trip changes must read "no change" here.
//
// Every op gets its own universe from the seed's stream. PAM's swap
// rounds differ from universe to universe (its time varies ±30% between
// inputs), so a run covers well over a hundred universes to keep its
// median steady from seed to seed; that sets n small.
const (
	batchN = 100
	batchK = 10
	batchL = 5
	// batchCallOps is the op prefix oracle_calls_per_op averages over: a
	// fixed input set, so the count repeats exactly at a seed.
	batchCallOps = 32
	// batchWarmups is how many untimed ops setup runs.
	batchWarmups = 4
	// batchLimit is the op latency limit goodput counts against.
	batchLimit = 2 * time.Second
)

type batchLocal struct {
	opts options
	tr   *tracer
	next int // position in the seed's input stream

	// Traced-phase accumulators (per op sums).
	acc batchAcc
}

type batchAcc struct {
	stats      core.Stats
	edges      float64
	deadRatio  float64
	queryNs    float64
	oracleCall int64
}

// batchOut is one op's outputs, checked after the timed region.
type batchOut struct {
	seed  int64
	calls int64
	knn   [][]prox.Neighbor
	mst   prox.MST
	pam   prox.Clustering
	err   error
}

func (b *batchLocal) prepare() error { return nil }

// setup runs a few untimed ops, so the heap and caches reach their
// steady state before timing. The warm-up inputs are the same for every
// seed (and outside every seed's measured stream): a single op's time
// varies by ±30% with its input, and setup_s should measure the same
// work in every run.
func (b *batchLocal) setup() error {
	for k := 0; k < batchWarmups; k++ {
		useed := seedStream(0, 1_000_000+k)
		if _, _, err := b.op(datasets.SFPOIPlanar(batchN, useed), useed, false); err != nil {
			return err
		}
	}
	return nil
}

func (b *batchLocal) teardown() {}

// op runs one batch job on a fresh session and returns its outputs and
// wall time. A call-ledger mismatch is returned as the error.
func (b *batchLocal) op(space metric.Space, useed int64, traced bool) (batchOut, time.Duration, error) {
	raw := metric.NewOracle(space)
	var fo metric.FallibleOracle = raw
	if traced {
		fo = &oracle{tr: b.tr, base: raw}
	}
	out := batchOut{seed: useed}
	t0 := time.Now()
	lms := core.PickLandmarks(batchN, log2Landmarks(batchN), useed)
	s := core.NewFallibleSessionWithLandmarks(fo, core.SchemeTri, lms)
	s.Bootstrap(lms)
	var v core.View = s
	if traced {
		v = wrapView(b.tr, s, nil)
	}
	t1 := time.Now()
	out.knn = prox.KNNGraph(v, batchK)
	t2 := time.Now()
	out.mst = prox.PrimMST(v)
	t3 := time.Now()
	out.pam = prox.PAM(v, batchL, useed)
	t4 := time.Now()
	wall := t4.Sub(t0)
	out.err = s.OracleErr()
	out.calls = raw.Calls()

	st := s.Stats()
	var ledger error
	if st.OracleCalls != raw.Calls() {
		ledger = fmt.Errorf("op on universe %d: oracle counted %d calls, session stats %d", useed, raw.Calls(), st.OracleCalls)
	}
	if traced {
		op := b.tr.newID()
		b.tr.opSpan(op, "batch", t0, t4)
		for _, sp := range []struct {
			layer, name string
			a, z        time.Time
		}{{"core", "bootstrap", t0, t1}, {"prox", "knn", t1, t2}, {"prox", "mst", t2, t3}, {"prox", "pam", t3, t4}} {
			b.tr.record(span{ID: b.tr.newID(), Op: op, Layer: sp.layer, Name: sp.name,
				Start: int64(sp.a.Sub(b.tr.t0)), End: int64(sp.z.Sub(b.tr.t0))})
		}
		b.acc.add(st, s, raw.Calls(), useed)
	}
	return out, wall, ledger
}

// add folds one traced op's session state into the accumulators,
// timing a sample of bound queries on the op's final bound state.
func (a *batchAcc) add(st core.Stats, s *core.Session, calls int64, useed int64) {
	a.stats.CacheHits += st.CacheHits
	a.stats.SavedComparisons += st.SavedComparisons
	a.stats.ResolvedComparisons += st.ResolvedComparisons
	a.oracleCall += calls
	gs := s.Graph().Stats()
	a.edges += float64(gs.Live) / 2
	if gs.Slab > 0 {
		a.deadRatio += float64(gs.Dead) / float64(gs.Slab)
	}
	const probes = 2000
	rng := rand.New(rand.NewSource(useed))
	is, js := make([]int, probes), make([]int, probes)
	for x := range is {
		is[x], js[x] = rng.Intn(batchN), rng.Intn(batchN)
	}
	t0 := time.Now()
	for x := range is {
		s.Bounds(is[x], js[x])
	}
	a.queryNs += float64(time.Since(t0).Nanoseconds()) / probes
}

func (b *batchLocal) run(d time.Duration, traced bool) (*phase, error) {
	p := &phase{}
	b.acc = batchAcc{}
	var outs []batchOut
	cpu0 := cpuTime()
	start := time.Now()
	// The first batchCallOps ops always run, so oracle_calls_per_op is
	// defined over the same inputs however fast the machine is.
	for len(outs) < batchCallOps || time.Since(start) < d {
		useed := seedStream(b.opts.seed, b.next)
		b.next++
		space := datasets.SFPOIPlanar(batchN, useed)
		out, wall, ledger := b.op(space, useed, traced)
		p.lat = append(p.lat, wall)
		if ledger != nil && p.ledgerErr == nil {
			p.ledgerErr = ledger
		}
		if out.err == nil && wall <= batchLimit {
			p.good++
		}
		outs = append(outs, out)
	}
	p.cpu = cpuTime() - cpu0
	p.wall = time.Since(start)
	p.rssMB = peakRSSMB()
	p.opsPerSec = closedLoopRate([][]time.Duration{p.lat})

	// Outside the timed region: every op's outputs against the noop
	// reference on the same universe.
	p.failed = verifyBatch(outs)
	p.good -= min(p.good, p.failed)
	p.goodPerSec = p.opsPerSec * float64(p.good) / float64(max(p.ops(), 1))
	var total int64
	prefix := outs[:min(len(outs), batchCallOps)]
	for _, o := range prefix {
		total += o.calls
	}
	p.callsPerOp = float64(total) / float64(max(len(prefix), 1))
	return p, nil
}

// verifyBatch recomputes every op on a noop session (every pair
// resolved, no bounds: the reference the re-authored IF must reproduce
// exactly) and returns the number of ops whose outputs differ.
func verifyBatch(outs []batchOut) (bad int64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan batchOut)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				ref := core.NewSession(metric.NewOracle(datasets.SFPOIPlanar(batchN, o.seed)), core.SchemeNoop)
				ok := o.err == nil &&
					sameKNN(o.knn, prox.KNNGraph(ref, batchK)) &&
					sameMST(o.mst, prox.PrimMST(ref)) &&
					samePAM(o.pam, prox.PAM(ref, batchL, o.seed))
				if !ok {
					mu.Lock()
					bad++
					mu.Unlock()
				}
			}
		}()
	}
	for _, o := range outs {
		work <- o
	}
	close(work)
	wg.Wait()
	return bad
}

func sameKNN(a, b [][]prox.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if len(a[u]) != len(b[u]) {
			return false
		}
		for x := range a[u] {
			if a[u][x].ID != b[u][x].ID || math.Float64bits(a[u][x].Dist) != math.Float64bits(b[u][x].Dist) {
				return false
			}
		}
	}
	return true
}

func sameMST(a, b prox.MST) bool {
	if len(a.Edges) != len(b.Edges) || math.Float64bits(a.Weight) != math.Float64bits(b.Weight) {
		return false
	}
	for x := range a.Edges {
		ea, eb := a.Edges[x], b.Edges[x]
		if ea.U != eb.U || ea.V != eb.V || math.Float64bits(ea.W) != math.Float64bits(eb.W) {
			return false
		}
	}
	return true
}

func samePAM(a, b prox.Clustering) bool {
	if len(a.Medoids) != len(b.Medoids) || len(a.Assign) != len(b.Assign) ||
		math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		return false
	}
	for x := range a.Medoids {
		if a.Medoids[x] != b.Medoids[x] {
			return false
		}
	}
	for x := range a.Assign {
		if a.Assign[x] != b.Assign[x] {
			return false
		}
	}
	return true
}

func (b *batchLocal) account(p *phase) (map[string]float64, []row) {
	spans := b.tr.snapshot()
	ops := float64(max(p.ops(), 1))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	op := sumSpans(spans, layerOp, "")
	boot := sumSpans(spans, "core", "bootstrap")
	knn := sumSpans(spans, "prox", "knn")
	mst := sumSpans(spans, "prox", "mst")
	pam := sumSpans(spans, "prox", "pam")
	proxNs := knn.ns + mst.ns + pam.ns
	viewNs := b.tr.view.totalNs()
	oracleNs := b.tr.oracle.ns.Load()

	rows := []row{
		{layer: "unattributed (benchmark loop)", count: 1, busy: ms(op.ns), self: ms(op.ns - boot.ns - proxNs)},
		{layer: "prox", count: 3, busy: ms(proxNs), self: ms(proxNs - viewNs)},
		{layer: "core", count: float64(b.tr.view.totalN()) / ops, busy: ms(viewNs + boot.ns), self: ms(viewNs + boot.ns - oracleNs)},
		{layer: "metric.oracle", count: float64(b.tr.oracle.n.Load()) / ops, busy: ms(oracleNs), self: ms(oracleNs)},
	}
	comparisons := float64(b.acc.stats.CacheHits + b.acc.stats.SavedComparisons + b.acc.stats.ResolvedComparisons)
	v := map[string]float64{
		"core.self_ms":                ms(viewNs + boot.ns - oracleNs),
		"core.saved_ratio":            float64(b.acc.stats.SavedComparisons) / math.Max(comparisons, 1),
		"core.cache_hit_ratio":        float64(b.acc.stats.CacheHits) / math.Max(comparisons, 1),
		"core.bootstrap_ms":           ms(boot.ns),
		"bounds.query_ns":             b.acc.queryNs / ops,
		"pgraph.edges":                b.acc.edges / ops,
		"pgraph.dead_ratio":           b.acc.deadRatio / ops,
		"metric.oracle_calls":         float64(b.acc.oracleCall) / ops,
		"metric.oracle_busy_ms":       ms(oracleNs),
		"metric.oracle_inflight_mean": float64(oracleNs) / float64(max(p.wall.Nanoseconds(), 1)),
		"prox.knn_ms":                 ms(knn.ns),
		"prox.mst_ms":                 ms(mst.ns),
		"prox.pam_ms":                 ms(pam.ns),
		"trace.op_wall_ms":            ms(op.ns),
		"trace.unattributed_ms":       ms(op.ns - boot.ns - proxNs),
	}
	b.tr.view.addCalls(v, ops)
	return v, rows
}
