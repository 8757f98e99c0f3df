package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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

// TestBatchAcceptsAnyValidJSON: the batch codec's fast path reads only
// the canonical form encoding/json writes. A body with whitespace and
// reordered keys must be answered with the same bytes as the canonical
// body, and an unknown field must still be refused with 400 bad_request
// and encoding/json's message.
func TestBatchAcceptsAnyValidJSON(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	createSession(t, ts.URL, "anyjson", "tri", true)
	url := ts.URL + "/v1/sessions/anyjson/batch"

	ops := []api.BatchOp{
		{Op: api.OpBounds, I: 3, J: 40},
		{Op: api.OpDist, I: 5, J: 17},
		{Op: api.OpLess, I: 1, J: 2, K: 3, L: 4},
		{Op: api.OpLessThan, I: 8, J: 9, C: 0.25},
		{Op: api.OpDistIfLess, I: 10, J: 11, C: api.WireFloat(math.Inf(1))},
		{Op: api.OpBounds, I: 7, J: 7},
	}
	canonical, err := json.Marshal(api.BatchRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	// Maps encode with sorted keys, which reorders every op's fields
	// ("c" and "i" before "op"); MarshalIndent adds whitespace.
	var reordered []map[string]any
	for _, op := range ops {
		m := map[string]any{"op": op.Op, "i": op.I, "j": op.J}
		if op.K != 0 || op.L != 0 {
			m["k"], m["l"] = op.K, op.L
		}
		if op.C != 0 {
			m["c"] = op.C
		}
		reordered = append(reordered, m)
	}
	loose, err := json.MarshalIndent(map[string]any{"ops": reordered}, " ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	send := func(body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.Bytes()
	}
	send(canonical) // resolve every pair the ops may resolve, so answers are stable
	code, want := send(canonical)
	if code != http.StatusOK {
		t.Fatalf("canonical body: status %d: %s", code, want)
	}
	if code, got := send(loose); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("body %s answered %d %s, canonical body answered %s", loose, code, got, want)
	}

	unknown := []byte(`{"ops":[{"op":"bounds","i":1,"j":2,"x":0}]}`)
	dec := json.NewDecoder(bytes.NewReader(unknown))
	dec.DisallowUnknownFields()
	wantErr := dec.Decode(&api.BatchRequest{})
	if wantErr == nil {
		t.Fatal("encoding/json accepted an unknown field")
	}
	code, body := send(unknown)
	var eb api.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body %s: %v", body, err)
	}
	if code != http.StatusBadRequest || eb.Code != api.CodeBadRequest || eb.Message != wantErr.Error() {
		t.Fatalf("unknown field answered %d %+v, want 400 %s %q", code, eb, api.CodeBadRequest, wantErr)
	}
}
