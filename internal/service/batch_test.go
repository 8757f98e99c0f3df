package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"metricprox/internal/datasets"
	"metricprox/internal/fcmp"
	"metricprox/internal/metric"
	"metricprox/internal/service/api"
)

// postJSON is post for goroutines other than the test's: it reports
// failures as errors instead of failing the test.
func postJSON(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestBatchDistRunsRaceScalarsPayEachPairOnce: /batch dist runs (fanned
// out server-side) and scalar /distifless requests that must resolve
// race on the same pairs; the single-flight map makes every pair cost
// exactly one oracle call, and every answer is the exact distance.
func TestBatchDistRunsRaceScalarsPayEachPairOnce(t *testing.T) {
	space := datasets.SFPOIPlanar(testN, testSeed)
	inst := metric.NewInstrumented(space, 300*time.Microsecond)
	_, ts, _ := newTestServer(t, Config{Oracle: metric.NewOracle(inst)})
	createSession(t, ts.URL, "race", "tri", false)
	base := ts.URL + "/v1/sessions/race/"

	var pairs [][2]int
	for i := 0; i < 4; i++ {
		for j := i + 1; j < testN; j += 3 {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	exact := func(p [2]int, d api.WireFloat) error {
		if !fcmp.ExactEq(float64(d), space.Distance(p[0], p[1])) {
			return fmt.Errorf("pair %v answered %v, want %v", p, float64(d), space.Distance(p[0], p[1]))
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker starts at its own offset, so the workers'
			// batches and scalars overlap on most pairs.
			mine := append(append([][2]int{}, pairs[w*5:]...), pairs[:w*5]...)
			if w%2 == 0 {
				ops := make([]api.BatchOp, 0, len(mine)+1)
				for x, p := range mine {
					if x == len(mine)/2 {
						// A bounds op splits the dist ops into two runs.
						ops = append(ops, api.BatchOp{Op: api.OpBounds, I: p[0], J: p[1]})
					}
					ops = append(ops, api.BatchOp{Op: api.OpDist, I: p[1], J: p[0]})
				}
				var resp api.BatchResponse
				if err := postJSON(base+"batch", api.BatchRequest{Ops: ops}, &resp); err != nil {
					t.Error(err)
					return
				}
				for x, op := range ops {
					if op.Op != api.OpDist {
						continue
					}
					res := resp.Results[x]
					if res.Err != "" {
						t.Errorf("batch dist (%d,%d): %s", op.I, op.J, res.Err)
					} else if err := exact([2]int{op.I, op.J}, res.D); err != nil {
						t.Error(err)
					}
				}
				return
			}
			for _, p := range mine {
				var resp api.DistIfLessResponse
				req := api.DistIfLessRequest{I: p[0], J: p[1], C: 2} // above any distance: must resolve
				if err := postJSON(base+"distifless", req, &resp); err != nil {
					t.Error(err)
					return
				}
				if !resp.Less {
					t.Errorf("distifless %v below 2: less = false", p)
				} else if err := exact(p, resp.D); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if max := inst.MaxPairCalls(); max != 1 {
		t.Fatalf("a pair was paid %d times, want exactly once", max)
	}
	if got := inst.DistinctPairs(); got != len(pairs) {
		t.Fatalf("oracle resolved %d distinct pairs, want %d", got, len(pairs))
	}
	var st api.StatsResponse
	resp, err := http.Get(ts.URL + "/v1/sessions/race")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.OracleCalls != int64(len(pairs)) {
		t.Fatalf("session counted %d oracle calls, oracle paid %d", st.OracleCalls, len(pairs))
	}
}
