package main

import (
	"fmt"
	"os"
	"text/tabwriter"
)

type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports; BENCHMARK.json lists the same
// names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"goodput_ops_per_s", "1/s"},
	{"oracle_calls_per_op", "count"},
	{"cpu_ms_per_op", "ms"},
	{"modelled_completion_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a traced run reports. Every workload prints every
// name; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"op_p99_ms", "ms"},
	{"proxclient.round_trips", "count"},
	{"proxclient.local_ratio", "ratio"},
	{"proxclient.rtt_ms", "ms"},
	{"proxclient.self_ms", "ms"},
	{"proxclient.req_bytes", "B"},
	{"proxclient.resp_bytes", "B"},
	{"service.handler_ms.create", "ms"},
	{"service.handler_ms.batch", "ms"},
	{"service.handler_ms.bounds", "ms"},
	{"service.handler_ms.stats", "ms"},
	{"service.handler_ms.delete", "ms"},
	{"service.handler_ms.search", "ms"},
	{"service.handler_ms.dist", "ms"},
	{"service.net_ms", "ms"},
	{"service.queue_depth_max", "count"},
	{"service.shed", "count"},
	{"cluster.router_self_ms", "ms"},
	{"cluster.failovers", "count"},
	{"cluster.repl_records", "count"},
	{"cluster.repl_lag_records_max", "count"},
	{"cluster.repl_catchup_s", "s"},
	{"core.calls.less", "count"},
	{"core.calls.lessthan", "count"},
	{"core.calls.distifless", "count"},
	{"core.calls.bounds", "count"},
	{"core.calls.dist", "count"},
	{"core.self_ms", "ms"},
	{"core.saved_ratio", "ratio"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.bootstrap_ms", "ms"},
	{"bounds.query_ns", "ns"},
	{"pgraph.edges", "count"},
	{"pgraph.dead_ratio", "ratio"},
	{"metric.oracle_calls", "count"},
	{"metric.oracle_busy_ms", "ms"},
	{"metric.oracle_inflight_mean", "count"},
	{"prox.knn_ms", "ms"},
	{"prox.mst_ms", "ms"},
	{"prox.pam_ms", "ms"},
	{"nsw.build_s", "s"},
	{"nsw.search_ms", "ms"},
	{"cachestore.bytes_per_op", "B"},
	{"gen.lag_ms", "ms"},
	{"gen.behind", "count"},
	{"error_ratio", "ratio"},
	{"round_trips_per_op", "count"},
	{"trace.op_wall_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// row is one line of the traced run's layer table. Times are per op in
// milliseconds; count is per op too. self is the layer's busy time minus
// the part its children cover; the selves of the op-path rows add up to
// the op's wall time.
type row struct {
	layer      string
	count      float64
	busy, self float64
	wait       float64
	background bool // not on the op path (replication, probes)
}

// selfTotal sums the op-path self times.
func selfTotal(rows []row) float64 {
	t := 0.0
	for _, r := range rows {
		if !r.background {
			t += r.self
		}
	}
	return t
}

func printLayers(o options, rows []row, p *phase) {
	w := tabwriter.NewWriter(os.Stderr, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(os.Stderr, "\n%s seed %d: traced %d ops, per-op layer account (ms)\n", o.workload, o.seed, p.ops())
	fmt.Fprintln(w, "layer\tcount/op\tbusy\tself\twait\t")
	for _, r := range rows {
		name := r.layer
		if r.background {
			name += " (background)"
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.3f\t%.3f\t%.3f\t\n", name, r.count, r.busy, r.self, r.wait)
	}
	fmt.Fprintf(w, "sum of op-path self\t\t\t%.3f\t\t\n", selfTotal(rows))
	w.Flush()
}

func printMetrics(o options, res *result) {
	w := tabwriter.NewWriter(os.Stderr, 2, 8, 2, ' ', 0)
	fmt.Fprintf(os.Stderr, "\n%s seed %d: correct=%v attempted=%d failed=%d\n",
		o.workload, o.seed, res.Correct, res.Attempted, res.Failed)
	list := endToEnd
	if o.trace {
		list = perLayer
	}
	for _, m := range list {
		v := res.Metrics[m.name]
		fmt.Fprintf(w, "%s\t%.6g\t%s\n", m.name, v.Value, v.Unit)
	}
	w.Flush()
}
