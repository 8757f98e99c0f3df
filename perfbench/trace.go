package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metricprox/internal/metric"
	"metricprox/internal/obs"
)

// The traced run wraps only what the benchmark hands to the program: the
// http.RoundTripper of every HTTP client it builds, an http.Handler around
// every server and router handler, the metric oracle, and the core.View
// the builders run on (view.go). HTTP-level work is recorded as spans;
// per-comparison and per-oracle-call work is too frequent for one span
// each and is kept as counters with busy time. Everything stays in memory
// until the run ends.

// spanHeader carries "op/span" across an HTTP hop, so the span on the
// far side names the op it serves and the span that caused it.
const spanHeader = "X-Perfbench-Span"

// Span layers.
const (
	layerOp       = "op"            // one benchmark op
	layerClient   = "proxclient"    // a proxclient call made by the benchmark itself
	layerHTTP     = "http"          // benchmark client → first server
	layerRouter   = "router"        // Router.Handler
	layerUpstream = "http.upstream" // router → node
	layerService  = "service"       // Server.Handler
	layerRepl     = "http.repl"     // replicator → peer (background)
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	ID        uint64 `json:"id"`
	Parent    uint64 `json:"parent,omitempty"`
	Op        uint64 `json:"op,omitempty"`
	Layer     string `json:"layer"`
	Name      string `json:"name,omitempty"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	ReqBytes  int64  `json:"req_bytes,omitempty"`
	RespBytes int64  `json:"resp_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// busy counts calls into one layer and the time spent inside them.
type busy struct{ n, ns atomic.Int64 }

func (b *busy) add(ns int64) {
	b.n.Add(1)
	b.ns.Add(ns)
}

// tracer is the in-memory span store plus the hot-layer aggregates. When
// off, every wrapper passes straight through after one atomic load.
type tracer struct {
	on  atomic.Bool
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span

	oracle busy
	view   viewStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.t0)) }
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// start switches recording on with empty stores.
func (t *tracer) start() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	t.oracle = busy{}
	t.view = viewStats{}
	t.on.Store(true)
}

func (t *tracer) stop() { t.on.Store(false) }

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// dump writes the spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCtx is the (op, span) pair a handler passes on through its request
// context, which the router propagates to its upstream request.
type spanCtx struct{ op, id uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	return context.WithValue(ctx, spanKey{}, sc)
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

func parseSpanHeader(h string) spanCtx {
	op, id, ok := strings.Cut(h, "/")
	if !ok {
		return spanCtx{}
	}
	o, _ := strconv.ParseUint(op, 10, 64)
	i, _ := strconv.ParseUint(id, 10, 64)
	return spanCtx{op: o, id: i}
}

// endpoint names a request by the service route it hits.
func endpoint(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 1:
		return parts[0] // healthz, metrics
	case len(parts) >= 2 && parts[1] == "repl":
		return "repl"
	case len(parts) == 2 && method == http.MethodPost:
		return "create"
	case len(parts) == 2:
		return "list"
	case len(parts) == 3 && method == http.MethodDelete:
		return "delete"
	case len(parts) == 3:
		return "stats"
	default:
		return parts[3]
	}
}

// transport is the traced http.RoundTripper. A client that runs one op
// at a time sets op so requests made without a context (the View
// methods of proxclient.Session) still carry their op id.
type transport struct {
	tr    *tracer
	layer string
	base  http.RoundTripper
	op    atomic.Uint64
}

func (t *tracer) transport(layer string, base http.RoundTripper) *transport {
	return &transport{tr: t, layer: layer, base: base}
}

// RoundTrip times the request until its response body is closed.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() {
		return t.base.RoundTrip(req)
	}
	sc := spanFrom(req.Context())
	if sc.op == 0 {
		sc.op = t.op.Load()
	}
	sp := span{
		ID:       t.tr.newID(),
		Parent:   sc.id,
		Op:       sc.op,
		Layer:    t.layer,
		Name:     endpoint(req.Method, req.URL.Path),
		ReqBytes: max(req.ContentLength, 0),
	}
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, fmt.Sprintf("%d/%d", sc.op, sp.ID))
	sp.Start = t.tr.now()
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		sp.End = t.tr.now()
		t.tr.record(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, sp: sp}
	return resp, nil
}

// spanBody ends its span when the response body is closed and counts the
// bytes read from it.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.RespBytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.End = b.tr.now()
		b.tr.record(b.sp)
	})
	return err
}

// handler wraps a server or router handler with a span per request.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sc := parseSpanHeader(r.Header.Get(spanHeader))
		sp := span{ID: t.newID(), Parent: sc.id, Op: sc.op, Layer: layer, Name: endpoint(r.Method, r.URL.Path)}
		sp.Start = t.now()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), spanCtx{op: sc.op, id: sp.ID})))
		sp.End = t.now()
		t.record(sp)
	})
}

// oracle wraps the fallible oracle handed to the program. It forwards no
// optional interface: the *metric.Oracle it wraps has none.
type oracle struct {
	tr   *tracer
	base metric.FallibleOracle
}

func (o *oracle) Len() int { return o.base.Len() }

func (o *oracle) DistanceCtx(ctx context.Context, i, j int) (float64, error) {
	if !o.tr.on.Load() {
		return o.base.DistanceCtx(ctx, i, j)
	}
	t0 := o.tr.now()
	d, err := o.base.DistanceCtx(ctx, i, j)
	o.tr.oracle.add(o.tr.now() - t0)
	return d, err
}

// clientSpan records a proxclient call the benchmark makes directly
// (create, stats, delete, search, dist) as a span of op; f gets a context
// carrying the span so the HTTP spans under it name their parent.
func (t *tracer) clientSpan(op uint64, name string, f func(ctx context.Context)) {
	if !t.on.Load() {
		f(context.Background())
		return
	}
	sp := span{ID: t.newID(), Op: op, Layer: layerClient, Name: name, Start: t.now()}
	f(withSpan(context.Background(), spanCtx{op: op, id: sp.ID}))
	sp.End = t.now()
	t.record(sp)
}

// opSpan records one benchmark op.
func (t *tracer) opSpan(op uint64, name string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	t.record(span{ID: t.newID(), Op: op, Layer: layerOp, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (v *viewStats) totalNs() int64 {
	var t int64
	for k := range v.kinds {
		t += v.kinds[k].ns.Load()
	}
	return t
}

func (v *viewStats) totalN() int64 {
	var t int64
	for k := range v.kinds {
		t += v.kinds[k].n.Load()
	}
	return t
}

// addCalls sets the core.calls.<kind> metrics, per op.
func (v *viewStats) addCalls(m map[string]float64, ops float64) {
	for _, k := range []int{kindLess, kindLessThan, kindDistIfLess, kindBounds, kindDist} {
		m["core.calls."+kindNames[k]] = float64(v.kinds[k].n.Load()) / ops
	}
}

// spanSum is the count and total duration of matching spans.
type spanSum struct {
	n  int64
	ns int64
}

// sumSpans totals the spans of layer, of one name unless name is "".
func sumSpans(spans []span, layer, name string) spanSum {
	var s spanSum
	for _, sp := range spans {
		if sp.Layer == layer && (name == "" || sp.Name == name) {
			s.n++
			s.ns += sp.dur()
		}
	}
	return s
}

// hop totals the spans on both sides of one HTTP hop.
type hop struct {
	client, server spanSum
	reqBytes       int64
	respBytes      int64
	// perEndpoint totals the server spans by endpoint.
	perEndpoint map[string]spanSum
}

// background reports endpoints that are not part of any op: health
// probes, metric scrapes and replication.
func background(name string) bool {
	return name == "healthz" || name == "metrics" || name == "repl"
}

// httpAccount totals one hop: the client spans of clientLayer and the
// server spans of serverLayer, leaving out background endpoints and
// requests that belong to no op (the benchmark's own checks).
func httpAccount(spans []span, clientLayer, serverLayer string) hop {
	h := hop{perEndpoint: map[string]spanSum{}}
	for _, sp := range spans {
		if background(sp.Name) || sp.Op == 0 {
			continue
		}
		switch sp.Layer {
		case clientLayer:
			h.client.n++
			h.client.ns += sp.dur()
			h.reqBytes += sp.ReqBytes
			h.respBytes += sp.RespBytes
		case serverLayer:
			h.server.n++
			h.server.ns += sp.dur()
			e := h.perEndpoint[sp.Name]
			e.n++
			e.ns += sp.dur()
			h.perEndpoint[sp.Name] = e
		}
	}
	return h
}

// clientMetrics sets the proxclient metrics from the hop's client side.
func (h hop) clientMetrics(m map[string]float64) {
	n := float64(max(h.client.n, 1))
	m["proxclient.round_trips"] = float64(h.client.n)
	m["proxclient.rtt_ms"] = float64(h.client.ns) / 1e6 / n
	m["proxclient.req_bytes"] = float64(h.reqBytes) / n
	m["proxclient.resp_bytes"] = float64(h.respBytes) / n
}

// serverMetrics sets the per-endpoint service handler times from the
// hop's server side.
func (h hop) serverMetrics(m map[string]float64) {
	for name, e := range h.perEndpoint {
		m["service.handler_ms."+name] = float64(e.ns) / 1e6 / float64(e.n)
	}
}

// decodeJSON decodes a 200 response body into out.
func decodeJSON(resp *http.Response, out any) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sampler polls a gauge until stopped and keeps its maximum.
type sampler struct {
	stop, done chan struct{}
	max        float64
}

func sample(every time.Duration, f func() float64) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			s.max = max(s.max, f())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// end stops the sampler and returns the maximum it saw.
func (s *sampler) end() float64 {
	close(s.stop)
	<-s.done
	return s.max
}

// registrySum reads the registry the way /metrics renders it and sums
// every series of the named counter or gauge.
func registrySum(reg *obs.Registry, name string) float64 {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return 0
	}
	var series map[string]any
	if err := json.Unmarshal(buf.Bytes(), &series); err != nil {
		return 0
	}
	total := 0.0
	for id, v := range series {
		if x, ok := v.(float64); ok && (id == name || strings.HasPrefix(id, name+"{")) {
			total += x
		}
	}
	return total
}
