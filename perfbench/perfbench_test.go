package main

import (
	"math"
	"testing"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/proxclient"
)

// exactCounts runs one minimal phase of w at seed and returns its exact
// per-op counts.
func exactCounts(t *testing.T, name string, seed int64) (calls, trips float64) {
	t.Helper()
	o := options{workload: name, seed: seed, seconds: 1, tmp: t.TempDir()}
	w, err := newWorkload(o, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		w.teardown()
		t.Fatal(err)
	}
	defer w.teardown()
	p, err := w.run(time.Nanosecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || p.ledgerErr != nil {
		t.Fatalf("%s seed %d: %d failed ops, ledger: %v", name, seed, p.failed, p.ledgerErr)
	}
	return p.callsPerOp, p.roundTripsPerOp
}

func TestExactCountsRepeatAtSeedAndChangeWithIt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, name := range []string{"batch-local", "knn-remote"} {
		t.Run(name, func(t *testing.T) {
			c1, r1 := exactCounts(t, name, 3)
			c2, r2 := exactCounts(t, name, 3)
			if c1 != c2 || r1 != r2 {
				t.Fatalf("seed 3 twice: calls %v vs %v, round trips %v vs %v", c1, c2, r1, r2)
			}
			c3, _ := exactCounts(t, name, 4)
			if c3 == c1 {
				t.Fatalf("seeds 3 and 4 both paid %v calls per op", c1)
			}
			if name == "knn-remote" && r1 == 0 {
				t.Fatal("knn-remote counted no round trips")
			}
		})
	}
}

// Fakes with every combination of the optional View interfaces.
type (
	fakeView     struct{ core.View }
	fakeFallible struct{ core.FallibleView }
	fakePrefetch struct{ core.View }
	fakeBatch    struct{ core.View }
	fakeFP       struct{ core.FallibleView }
	fakeFB       struct{ core.FallibleView }
	fakePB       struct{ core.View }
	fakeFPB      struct{ core.FallibleView }
)

// optionalCalls counts the optional-interface calls that reached a fake.
var optionalCalls int

func (fakePrefetch) PrefetchBounds([]core.Pair)          { optionalCalls++ }
func (fakeFP) PrefetchBounds([]core.Pair)                { optionalCalls++ }
func (fakePB) PrefetchBounds([]core.Pair)                { optionalCalls++ }
func (fakeFPB) PrefetchBounds([]core.Pair)               { optionalCalls++ }
func (fakeBatch) BoundsBatch(_, _ []int, _, _ []float64) { optionalCalls++ }
func (fakeFB) BoundsBatch(_, _ []int, _, _ []float64)    { optionalCalls++ }
func (fakePB) BoundsBatch(_, _ []int, _, _ []float64)    { optionalCalls++ }
func (fakeFPB) BoundsBatch(_, _ []int, _, _ []float64)   { optionalCalls++ }

func interfaces(v core.View) (f, p, b bool) {
	_, f = v.(core.FallibleView)
	_, p = v.(core.BoundsPrefetcher)
	_, b = v.(core.BatchBoundsView)
	return
}

func TestWrapViewForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	sess := core.NewSession(metric.NewOracle(datasets.SFPOIPlanar(10, 1)), core.SchemeTri)
	remote := &proxclient.Session{}
	views := map[string]core.View{
		"view": fakeView{sess}, "fallible": fakeFallible{sess}, "prefetch": fakePrefetch{sess},
		"batch": fakeBatch{sess}, "fallible+prefetch": fakeFP{sess}, "fallible+batch": fakeFB{sess},
		"prefetch+batch": fakePB{sess}, "all": fakeFPB{sess},
		"core.Session": sess, "proxclient.Session": remote,
	}
	tr := newTracer()
	for name, v := range views {
		w := wrapView(tr, v, nil)
		f0, p0, b0 := interfaces(v)
		f1, p1, b1 := interfaces(w)
		if f0 != f1 || p0 != p1 || b0 != b1 {
			t.Errorf("%s: wrapped has fallible/prefetch/batch %v/%v/%v, want %v/%v/%v", name, f1, p1, b1, f0, p0, b0)
		}
		if _, ok := v.(*proxclient.Session); ok {
			continue // its methods need a live daemon
		}
		optionalCalls = 0
		if p1 {
			w.(core.BoundsPrefetcher).PrefetchBounds([]core.Pair{{A: 0, B: 1}})
		}
		if b1 {
			lb, ub := make([]float64, 1), make([]float64, 1)
			w.(core.BatchBoundsView).BoundsBatch([]int{0}, []int{1}, lb, ub)
		}
		if name != "core.Session" && optionalCalls != boolInt(p1)+boolInt(b1) {
			t.Errorf("%s: %d optional calls reached the wrapped view, want %d", name, optionalCalls, boolInt(p1)+boolInt(b1))
		}
	}
	// The wrapper answers exactly what the session answers.
	w := wrapView(tr, sess, nil)
	for i := 0; i < 10; i++ {
		if a, b := w.Dist(0, i), sess.Dist(0, i); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("Dist(0,%d): wrapped %v, session %v", i, a, b)
		}
	}
	if tr.view.kinds[kindDist].n.Load() != 10 {
		t.Fatalf("counted %d dist calls, want 10", tr.view.kinds[kindDist].n.Load())
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestOpenLoopReportsLagAndFlagsFallingBehind(t *testing.T) {
	due := make([]time.Duration, 200)
	for x := range due {
		due[x] = time.Duration(x) * time.Millisecond // 1000 requests/s
	}
	// A target that keeps up: lag stays near the sleep granularity.
	_, sent, origin := openLoop(due, 2, func(int, int) {})
	lag := genLagMs(due, sent)
	if lag < 0 || genBehind(lag, searchLimit) {
		t.Fatalf("keeping up: p99 lag %.2f ms flagged behind=%v", lag, genBehind(lag, searchLimit))
	}
	for x := range origin {
		if origin[x] != sent[x] && origin[x] != due[x] {
			t.Fatalf("request %d: latency origin %v is neither its send time %v nor its due time %v", x, origin[x], sent[x], due[x])
		}
	}
	// A target that takes 5 ms per request on one sender falls ~0.8 s
	// behind by the end of the 0.2 s schedule.
	_, sent, origin = openLoop(due, 1, func(int, int) { time.Sleep(5 * time.Millisecond) })
	lag = genLagMs(due, sent)
	if !genBehind(lag, searchLimit) {
		t.Fatalf("slow target: p99 lag %.2f ms not flagged behind", lag)
	}
	queued := 0
	for x := range sent {
		if sent[x] < due[x] {
			t.Fatalf("request %d sent at %v, before it was due at %v", x, sent[x], due[x])
		}
		if origin[x] == due[x] {
			queued++
		}
	}
	// Once the sender falls behind, every request waits in its queue and
	// is timed from when it was due.
	if queued < len(due)*3/4 {
		t.Fatalf("only %d of %d requests timed from their due time behind a slow target", queued, len(due))
	}
}
