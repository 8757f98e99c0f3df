package proxclient

import (
	"context"
	"errors"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/fcmp"
	"metricprox/internal/metric"
	"metricprox/internal/prox"
	"metricprox/internal/service"
)

// noBatch hides the client's core.BatchResolver (and keeps its bounds
// prefetch), so the kNN builder resolves its first k candidates one
// round-trip at a time.
type noBatch struct {
	core.FallibleView
	core.BoundsPrefetcher
}

// TestKNNBatchResolveParityOverClient: for every scheme the daemon
// hosts, a client-side kNN build with the first-k batch resolution
// returns the graph of the build without it, and of the in-process
// build, at the same server oracle-call count and in fewer round-trips.
func TestKNNBatchResolveParityOverClient(t *testing.T) {
	const k = 4
	schemes := []core.Scheme{
		core.SchemeNoop, core.SchemeSPLUB, core.SchemeTri, core.SchemeADM,
		core.SchemeLAESA, core.SchemeTLAESA, core.SchemeHybrid,
	}
	c, _ := newDaemon(t, service.Config{})
	lmCount := 0
	for v := testN; v > 1; v /= 2 {
		lmCount++
	}
	lms := core.PickLandmarks(testN, lmCount, testSeed)
	for _, scheme := range schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			local := core.NewFallibleSessionWithLandmarks(metric.NewOracle(testSpace()), scheme, lms)
			if scheme != core.SchemeNoop {
				if _, err := local.BootstrapErr(lms); err != nil {
					t.Fatal(err)
				}
			}
			want := prox.KNNGraph(local, k)

			build := func(name string, hide bool) (graph [][]prox.Neighbor, calls, trips int64) {
				sess, err := CreateSession(context.Background(), c, name, scheme.String(),
					SessionOptions{Seed: testSeed, Bootstrap: true})
				if err != nil {
					t.Fatalf("CreateSession(%s): %v", name, err)
				}
				var v core.View = sess
				if hide {
					v = noBatch{sess, sess}
				}
				before := c.Requests()
				graph = prox.KNNGraph(v, k)
				trips = c.Requests() - before
				if err := sess.OracleErr(); err != nil {
					t.Fatalf("%s: OracleErr on a healthy daemon: %v", name, err)
				}
				return graph, sess.Stats().OracleCalls, trips
			}
			with, withCalls, withTrips := build("batch-"+scheme.String(), false)
			without, withoutCalls, withoutTrips := build("nobatch-"+scheme.String(), true)
			sameGraph(t, with, want, "batched client vs in-process")
			sameGraph(t, without, want, "unbatched client vs in-process")
			if withCalls != withoutCalls {
				t.Fatalf("server oracle calls: %d batched, %d unbatched", withCalls, withoutCalls)
			}
			if withTrips >= withoutTrips {
				t.Fatalf("round-trips: %d batched, not fewer than %d unbatched", withTrips, withoutTrips)
			}
		})
	}
}

// TestResolveBatchNaiveClientIsNoOp: the naive client (NoCache or
// NoPrefetch) keeps paying per primitive, so ResolveBatch sends nothing.
func TestResolveBatchNaiveClientIsNoOp(t *testing.T) {
	c, _ := newDaemon(t, service.Config{})
	for _, opts := range []SessionOptions{{NoCache: true}, {NoPrefetch: true}} {
		sess, err := CreateSession(context.Background(), c, "naive", "tri", opts)
		if err != nil {
			t.Fatal(err)
		}
		before := c.Requests()
		if err := sess.ResolveBatch([]core.Pair{{A: 1, B: 2}, {A: 3, B: 4}}); err != nil {
			t.Fatalf("ResolveBatch(%+v): %v", opts, err)
		}
		if got := c.Requests() - before; got != 0 {
			t.Fatalf("ResolveBatch(%+v) spent %d round-trips, want 0", opts, got)
		}
		if err := sess.Delete(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResolveBatchMirrorsAndReportsPerOp: one round-trip resolves every
// unknown pair into the mirror; a failed op surfaces as the first
// failure in input order and is latched as OracleErr, while the other
// ops still resolve.
func TestResolveBatchMirrorsAndReportsPerOp(t *testing.T) {
	c, _ := newDaemon(t, service.Config{})
	sess := remoteSession(t, c, "resolve")
	ref := referenceSession(t)
	pairs := []core.Pair{{A: 0, B: 1}, {A: 2, B: 3}, {A: 3, B: 2}, {A: 4, B: 4}}
	before := c.Requests()
	if err := sess.ResolveBatch(pairs); err != nil {
		t.Fatalf("ResolveBatch: %v", err)
	}
	if got := c.Requests() - before; got != 1 {
		t.Fatalf("ResolveBatch spent %d round-trips, want 1", got)
	}
	for _, p := range pairs[:2] {
		if d, ok := sess.Known(p.A, p.B); !ok || !fcmp.ExactEq(d, ref.Dist(p.A, p.B)) {
			t.Fatalf("pair %v mirrored as (%v, %v), want the exact distance", p, d, ok)
		}
	}

	// Out-of-range pairs fail per op on the server (bad_request).
	err := sess.ResolveBatch([]core.Pair{{A: 5, B: 6}, {A: 7, B: testN + 3}, {A: 8, B: testN + 9}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Message != "batch dist(7,63) failed" {
		t.Fatalf("err = %v, want the failure of the first bad op (7,63)", err)
	}
	if !errors.Is(sess.OracleErr(), err) {
		t.Fatalf("OracleErr = %v, want the returned failure latched", sess.OracleErr())
	}
	if _, ok := sess.Known(5, 6); !ok {
		t.Fatal("the valid op of a partly failed batch was not mirrored")
	}
}
