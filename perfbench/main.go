// Command perfbench is metricprox's end-to-end benchmark. It runs one
// named workload against the program's public entry points, checks every
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"op_p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// Build and run it from the repository root with run.sh; README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tmp      string
	traceDir string
}

// workload is one benchmark scenario.
type workload interface {
	// prepare generates the inputs from the seed and computes the
	// reference outputs; it is not part of setup_s.
	prepare() error
	// setup brings the system under test to its ready state.
	setup() error
	// teardown stops everything setup started and waits for it.
	teardown()
	// run drives load for d, checks every output outside the timed
	// region, and reconciles the call ledger.
	run(d time.Duration, traced bool) (*phase, error)
	// account returns the per-layer metrics and self-time rows of the
	// traced phase p.
	account(p *phase) (map[string]float64, []row)
}

func newWorkload(o options, tr *tracer) (workload, error) {
	switch o.workload {
	case "knn-remote":
		return &knnRemote{opts: o, tr: tr}, nil
	case "batch-local":
		return &batchLocal{opts: o, tr: tr}, nil
	case "search-cluster":
		return &searchCluster{opts: o, tr: tr}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want knn-remote, batch-local or search-cluster)", o.workload)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "knn-remote, batch-local or search-cluster")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&o.tmp, "tmp", os.TempDir(), "directory for the cluster's cache stores")
	flag.StringVar(&o.traceDir, "trace-dir", "trace", "directory the traced run writes its span dump to")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (*result, error) {
	tr := newTracer()
	w, err := newWorkload(o, tr)
	if err != nil {
		return nil, err
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return runTraced(o, w, tr, d)
	}

	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < setupReps-1 {
			w.teardown()
		}
		// Start the next set-up, and the measured window, from a collected
		// heap, so garbage left by earlier set-ups is not paid for inside
		// the window.
		runtime.GC()
	}
	p, err := w.run(d, false)
	w.teardown()
	if err != nil {
		return nil, err
	}
	res := verdict(p)
	p50 := quantileMs(p.lat, 0.5)
	ops := float64(max(p.ops(), 1))
	// CostModel.Completion takes whole calls; scaling both terms by 1000
	// keeps three decimals of the per-op call mean.
	p50d := time.Duration(p50 * float64(time.Millisecond))
	modelled := costModel.Completion(int64(math.Round(p.callsPerOp*1000)), 1000*p50d).Seconds() / 1000
	values := map[string]float64{
		"setup_s":               median(setups),
		"op_p50_ms":             p50,
		"ops_per_s":             p.opsPerSec,
		"goodput_ops_per_s":     p.goodPerSec,
		"oracle_calls_per_op":   p.callsPerOp,
		"cpu_ms_per_op":         float64(p.cpu) / float64(time.Millisecond) / ops,
		"modelled_completion_s": modelled,
		"peak_rss_mb":           p.rssMB,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricOut{Value: values[m.name], Unit: m.unit}
	}
	printMetrics(o, res)
	return res, nil
}

// runTraced sets up once, measures half the window untraced and half
// traced, and reports the per-layer metrics of the traced half plus the
// tracing overhead on op_p50_ms.
func runTraced(o options, w workload, tr *tracer, d time.Duration) (*result, error) {
	if err := w.setup(); err != nil {
		w.teardown()
		return nil, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	plain, err := w.run(d/2, false)
	if err != nil {
		w.teardown()
		return nil, err
	}
	runtime.GC()
	tr.start()
	traced, err := w.run(d/2, true)
	tr.stop()
	if err != nil {
		w.teardown()
		return nil, err
	}
	values, rows := w.account(traced)
	w.teardown()

	res := verdict(plain)
	tres := verdict(traced)
	res.Correct = res.Correct && tres.Correct
	res.Attempted += tres.Attempted
	res.Failed += tres.Failed
	// op_p99_ms is end-to-end in kind, but on a shared 2-CPU host its
	// run-to-run spread (20-40% on search-cluster) is wider than any bound
	// the benchmark can carry, so it is reported here, from the untraced
	// half, without one.
	values["op_p99_ms"] = quantileMs(plain.lat, 0.99)
	values["error_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	values["round_trips_per_op"] = traced.roundTripsPerOp
	values["trace.overhead_ms"] = quantileMs(traced.lat, 0.5) - quantileMs(plain.lat, 0.5)
	for _, m := range perLayer {
		res.Metrics[m.name] = metricOut{Value: values[m.name], Unit: m.unit}
	}
	dump := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.dump(dump); err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	printLayers(o, rows, traced)
	fmt.Fprintf(os.Stderr, "span dump: %s (%d spans)\n", dump, len(tr.snapshot()))
	printMetrics(o, res)
	return res, nil
}

// verdict turns a phase's op and ledger accounting into the result line's
// verdict fields.
func verdict(p *phase) *result {
	res := &result{
		Correct:   p.failed == 0 && p.ledgerErr == nil && p.ops() > 0,
		Attempted: p.ops(),
		Failed:    p.failed,
		Metrics:   map[string]metricOut{},
	}
	if p.ledgerErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: call ledger:", p.ledgerErr)
	}
	return res
}
