package prox

import (
	"reflect"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
)

// noBatch hides a view's core.BatchResolver, so knnForNode resolves its
// first k candidates one DistIfLess at a time — the path the batch
// replaces.
type noBatch struct{ core.FallibleView }

// TestKNNBatchResolveParity: for every scheme, the kNN graph built with
// the first-k batch is identical to the one built without it, at the
// same oracle-call count, over Session and SharedSession alike, and with
// KNNGraphParallel (call-for-call at one worker).
func TestKNNBatchResolveParity(t *testing.T) {
	schemes := []core.Scheme{
		core.SchemeNoop, core.SchemeSPLUB, core.SchemeTri, core.SchemeADM,
		core.SchemeLAESA, core.SchemeTLAESA, core.SchemeDFT, core.SchemeHybrid,
	}
	for _, scheme := range schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			n, k := 48, 5
			if scheme == core.SchemeDFT {
				n, k = 10, 3 // one LP per undecided comparison
			}
			space := datasets.SFPOIPlanar(n, 8)
			lms := core.PickLandmarks(n, 4, 8)
			fresh := func() *core.Session {
				s := core.NewSessionWithLandmarks(metric.NewOracle(space), scheme, lms)
				s.Bootstrap(lms)
				return s
			}
			ref := fresh()
			want := KNNGraph(noBatch{ref}, k)
			wantCalls := ref.Stats().OracleCalls
			check := func(label string, got [][]Neighbor, calls int64) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: graph differs from the unbatched build", label)
				}
				if calls != wantCalls {
					t.Fatalf("%s: %d oracle calls, unbatched build %d", label, calls, wantCalls)
				}
			}

			s := fresh()
			check("Session", KNNGraph(s, k), s.Stats().OracleCalls)
			sh := core.Share(fresh())
			check("SharedSession", KNNGraph(sh, k), sh.Stats().OracleCalls)
			shNo := core.Share(fresh())
			check("SharedSession unbatched", KNNGraph(noBatch{shNo}, k), shNo.Stats().OracleCalls)
			p1 := core.Share(fresh())
			check("KNNGraphParallel(1)", KNNGraphParallel(p1, k, 1), p1.Stats().OracleCalls)
			// More workers interleave resolutions, which moves the call
			// count but never the graph.
			p4 := core.Share(fresh())
			if got := KNNGraphParallel(p4, k, 4); !reflect.DeepEqual(got, want) {
				t.Fatal("KNNGraphParallel(4): graph differs from the unbatched build")
			}
		})
	}
}
