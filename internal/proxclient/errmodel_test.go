package proxclient

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/metric"
	"metricprox/internal/service"
)

// deadOracle fails every resolution.
type deadOracle struct{ n int }

func (d deadOracle) Len() int { return d.n }

func (d deadOracle) DistanceCtx(context.Context, int, int) (float64, error) {
	return 0, errors.New("backend down")
}

// deadRemote returns a remote session, with an empty mirror, whose
// daemon has since gone away.
func deadRemote(t *testing.T) core.FallibleView {
	t.Helper()
	srv, err := service.New(service.Config{Oracle: metric.NewOracle(testSpace())})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	opts := fastOptions()
	opts.Policy.MaxAttempts = 2
	c := New(ts.URL, opts)
	c.sleep = func(time.Duration) {}
	sess, err := CreateSession(context.Background(), c, "dead", "tri", SessionOptions{Seed: testSeed})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	ts.Close()
	srv.Close()
	return sess
}

// TestErrMethodsLatchOracleErr pins the one error model every
// FallibleView shares: after any failed *Err call, OracleErr is non-nil.
// Each call asks about pairs nothing is known about, so the bounds cannot
// settle it and it must resolve.
func TestErrMethodsLatchOracleErr(t *testing.T) {
	views := []struct {
		name string
		view func(t *testing.T) core.FallibleView
	}{
		{"core.Session", func(*testing.T) core.FallibleView {
			return core.NewFallibleSession(deadOracle{8}, core.SchemeTri)
		}},
		{"core.SharedSession", func(*testing.T) core.FallibleView {
			return core.Share(core.NewFallibleSession(deadOracle{8}, core.SchemeTri))
		}},
		{"proxclient.Session", deadRemote},
	}
	calls := []struct {
		name string
		call func(v core.FallibleView) error
	}{
		{"DistErr", func(v core.FallibleView) error {
			_, err := v.DistErr(0, 1)
			return err
		}},
		{"LessErr", func(v core.FallibleView) error {
			_, err := v.LessErr(0, 1, 2, 3)
			return err
		}},
		{"LessThanErr", func(v core.FallibleView) error {
			_, err := v.LessThanErr(0, 1, v.MaxDistance()/2)
			return err
		}},
		{"DistIfLessErr", func(v core.FallibleView) error {
			_, _, err := v.DistIfLessErr(0, 1, v.MaxDistance()/2)
			return err
		}},
	}
	for _, vw := range views {
		for _, c := range calls {
			t.Run(vw.name+"/"+c.name, func(t *testing.T) {
				v := vw.view(t)
				if err := c.call(v); err == nil {
					t.Fatal("call over a dead oracle succeeded")
				}
				if v.OracleErr() == nil {
					t.Fatal("failed call left OracleErr nil")
				}
			})
		}
	}
}
