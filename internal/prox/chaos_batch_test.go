package prox_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metricprox/internal/bounds"
	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/faultmetric"
	"metricprox/internal/metric"
	"metricprox/internal/prox"
	"metricprox/internal/proxclient"
	"metricprox/internal/resilient"
	"metricprox/internal/service"
)

// batchChaosSeed is the fault-schedule seed, CHAOS_SEED when set (CI's
// chaos matrix), else 1.
func batchChaosSeed(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("CHAOS_SEED")
	if env == "" {
		return 1
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", env, err)
	}
	return seed
}

// firstBootstrapFailure returns the injected error of the first pair, in
// bounds.EdgesForBootstrap order, whose first attempt fails under cfg,
// or nil when none does. The schedule is a pure function of (seed, pair,
// attempt), so a fresh injector probed in edge order predicts it.
func firstBootstrapFailure(space metric.Space, cfg faultmetric.Config, n int, landmarks []int) error {
	probe := faultmetric.New(space, cfg)
	for _, e := range bounds.EdgesForBootstrap(n, landmarks) {
		if _, err := probe.DistanceCtx(context.Background(), e.U, e.V); err != nil {
			return err
		}
	}
	return nil
}

// healable serves every call through a fault injector until heal, and
// straight from the space afterwards — an oracle outage that ends.
type healable struct {
	inj    *faultmetric.Injector
	space  metric.Space
	healed atomic.Bool
	clean  atomic.Int64 // calls served after heal
}

func (h *healable) Len() int { return h.space.Len() }

func (h *healable) DistanceCtx(ctx context.Context, i, j int) (float64, error) {
	if !h.healed.Load() {
		return h.inj.DistanceCtx(ctx, i, j)
	}
	h.clean.Add(1)
	return h.space.Distance(i, j), nil
}

// served is the ground truth of successful calls.
func (h *healable) served() int64 {
	ic := h.inj.Counters()
	return ic.Calls - ic.Failures() + h.clean.Load()
}

// TestChaosBatchResolveFaultContract drives a fanned-out bootstrap and a
// first-k-batched kNN build over a seeded transient-fault schedule with
// no retries, through SharedSession and through proxclient against a
// daemon, and checks the fan-out's fault contract:
//
//  1. the bootstrap returns the first failure in edge order, even though
//     the fan-out completes calls out of order;
//  2. the ledger reconciles after every phase: the session counts
//     exactly the calls the oracle served (every success is committed,
//     no failure is);
//  3. once the oracle recovers, a completed bootstrap and a second kNN
//     build on the same session give a graph byte-identical to a
//     no-fault run — the faulty build committed only exact values.
func TestChaosBatchResolveFaultContract(t *testing.T) {
	const n, k = 64, 5
	seed := batchChaosSeed(t)
	space := datasets.SFPOIPlanar(n, seed)
	lms := core.PickLandmarks(n, 6, seed)
	cfg := faultmetric.Config{Seed: seed, TransientRate: 0.1}

	ref := core.NewFallibleSessionWithLandmarks(metric.NewOracle(space), core.SchemeTri, lms)
	if _, err := ref.BootstrapErr(lms); err != nil {
		t.Fatal(err)
	}
	want := prox.KNNGraph(ref, k)
	firstFailure := firstBootstrapFailure(space, cfg, n, lms)
	if firstFailure == nil {
		t.Logf("seed %d: no bootstrap pair fails its first attempt", seed)
	}

	checkFirst := func(t *testing.T, err error) {
		t.Helper()
		if firstFailure == nil {
			if err != nil {
				t.Fatalf("bootstrap failed with no scheduled failure: %v", err)
			}
			return
		}
		if !errors.Is(err, core.ErrOracleUnavailable) || !strings.Contains(err.Error(), firstFailure.Error()) {
			t.Fatalf("bootstrap error = %v, want the first failure in edge order (%v)", err, firstFailure)
		}
	}
	checkLedger := func(t *testing.T, label string, o *healable, calls int64) {
		t.Helper()
		if served := o.served(); calls != served {
			t.Fatalf("%s: session counted %d oracle calls, oracle served %d", label, calls, served)
		}
	}
	// run is the scenario over one view: faulty bootstrap, faulty kNN
	// build, recovery, then a completed bootstrap and a second build.
	run := func(t *testing.T, o *healable, bootstrap func() error, build func() [][]prox.Neighbor, calls func() int64) {
		checkFirst(t, bootstrap())
		checkLedger(t, "after the failed bootstrap", o, calls())
		build()
		checkLedger(t, "after the faulty kNN build", o, calls())
		o.healed.Store(true)
		if err := bootstrap(); err != nil {
			t.Fatalf("bootstrap after recovery: %v", err)
		}
		got := build()
		checkLedger(t, "after recovery", o, calls())
		if !reflect.DeepEqual(got, want) {
			t.Fatal("kNN graph after recovery differs from the no-fault run")
		}
	}

	t.Run("SharedSession", func(t *testing.T) {
		o := &healable{inj: faultmetric.New(space, cfg), space: space}
		s := core.Share(core.NewFallibleSessionWithLandmarks(o, core.SchemeTri, lms))
		run(t, o,
			func() error { _, err := s.BootstrapErr(lms); return err },
			func() [][]prox.Neighbor { return prox.KNNGraphParallel(s, k, 4) },
			func() int64 { return s.Stats().OracleCalls })
	})

	t.Run("proxclient", func(t *testing.T) {
		o := &healable{inj: faultmetric.New(space, cfg), space: space}
		srv, err := service.New(service.Config{Oracle: o})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		c := proxclient.New(ts.URL, proxclient.Options{Policy: resilient.Policy{
			MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: 32 * time.Microsecond, Seed: seed,
		}})
		ctx := context.Background()
		sess, err := proxclient.CreateSession(ctx, c, "chaos", "tri",
			proxclient.SessionOptions{Seed: seed, Landmarks: len(lms)})
		if err != nil {
			t.Fatal(err)
		}
		run(t, o,
			func() error { _, err := sess.Bootstrap(ctx, lms); return err },
			func() [][]prox.Neighbor { return prox.KNNGraph(sess, k) },
			func() int64 { return sess.Stats().OracleCalls })
	})
}
