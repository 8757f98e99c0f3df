package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/obs"
	"metricprox/internal/obs/obshttp"
	"metricprox/internal/prox"
	"metricprox/internal/proxclient"
	"metricprox/internal/service"
)

// knn-remote is the expensive-oracle service path: a single in-process
// daemon over real loopback TCP whose oracle sleeps 1 ms per call, and
// one closed-loop client per CPU. Each client op creates its own session
// with server-side bootstrap, builds the k=10 kNN graph client-side with
// prox.KNNGraph over proxclient.Session, and deletes the session. It
// stresses oracle latency, round trips and the client mirror, and
// bypasses the router and replication.
//
// The universe is the planar SF surrogate: its distances are a pure
// function of the pair, so the remote graph must be byte-identical to an
// in-process build. 1 ms is the shortest latency the oracle honours on a
// typical Linux box, whose sleep floor is about 1.08 ms.
const (
	knnN       = 200
	knnK       = 10
	knnLatency = time.Millisecond
	knnLimit   = 30 * time.Second
)

type knnRemote struct {
	opts  options
	tr    *tracer
	space metric.Space
	ref   [][]prox.Neighbor

	raw       *metric.Oracle
	reg       *obs.Registry
	srv       *service.Server
	hs        *http.Server
	serveDone chan struct{}
	url       string
	base      *http.Transport
	names     atomic.Int64 // session name sequence

	acc knnAcc
}

// knnAcc sums the server-side session stats of traced ops.
type knnAcc struct {
	mu    sync.Mutex
	stats core.Stats
	queue float64
}

func (k *knnRemote) prepare() error {
	k.space = datasets.SFPOIPlanar(knnN, k.opts.seed)
	lms := core.PickLandmarks(knnN, log2Landmarks(knnN), k.opts.seed)
	s := core.NewSessionWithLandmarks(metric.NewOracle(k.space), core.SchemeTri, lms)
	s.Bootstrap(lms)
	k.ref = prox.KNNGraph(s, knnK)
	return nil
}

// newTransport is the loopback transport every benchmark client uses: at
// most one idle connection per client, no proxy.
func newTransport() *http.Transport {
	return &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     time.Minute,
	}
}

// serve starts an http.Server on ln and returns a channel closed when
// Serve has returned.
func serve(ln net.Listener, h http.Handler) (*http.Server, chan struct{}) {
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return hs, done
}

// daemonHandler mounts a server the way metricproxd does: the service
// API plus the registry's /metrics on one mux.
func daemonHandler(srv *service.Server, reg *obs.Registry) http.Handler {
	mux := obshttp.Mux(reg)
	mux.Handle("/healthz", srv.Handler())
	mux.Handle("/v1/", srv.Handler())
	return mux
}

// setup starts the daemon and runs one warm-up session (create with
// bootstrap, delete) so connections and the server are warm.
func (k *knnRemote) setup() error {
	k.raw = metric.NewLatencyOracle(k.space, knnLatency)
	var fo metric.FallibleOracle = k.raw
	if k.opts.trace {
		fo = &oracle{tr: k.tr, base: k.raw}
	}
	k.reg = obs.NewRegistry()
	srv, err := service.New(service.Config{Oracle: fo, Registry: k.reg})
	if err != nil {
		return err
	}
	k.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	k.url = "http://" + ln.Addr().String()
	k.hs, k.serveDone = serve(ln, k.tr.handler(layerService, daemonHandler(srv, k.reg)))
	k.base = newTransport()

	ctx := context.Background()
	cl := proxclient.New(k.url, proxclient.Options{HTTPClient: &http.Client{Transport: k.base}})
	sess, err := proxclient.CreateSession(ctx, cl, "warmup", "tri",
		proxclient.SessionOptions{Seed: k.opts.seed, Bootstrap: true})
	if err != nil {
		return fmt.Errorf("warm-up session: %w", err)
	}
	return sess.Delete(ctx)
}

func (k *knnRemote) teardown() {
	if k.srv == nil {
		return
	}
	k.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = k.hs.Shutdown(ctx) // a forced close still ends Serve
	<-k.serveDone
	k.srv.Close()
	k.base.CloseIdleConnections()
	k.srv = nil
}

// knnOp is one finished op.
type knnOp struct {
	wall       time.Duration
	roundTrips int64
	calls      int64
	ok         bool
}

func (k *knnRemote) run(d time.Duration, traced bool) (*phase, error) {
	p := &phase{}
	k.acc = knnAcc{}
	var queue *sampler
	if traced {
		g := k.reg.Gauge(service.MetricQueueDepth)
		queue = sample(5*time.Millisecond, g.Value)
	}
	perClient := make([][]knnOp, clients)
	calls0 := k.raw.Calls()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rt := k.tr.transport(layerHTTP, k.base)
			cl := proxclient.New(k.url, proxclient.Options{HTTPClient: &http.Client{Transport: rt}})
			for x := 0; x == 0 || time.Since(start) < d; x++ {
				opID := k.tr.newID()
				rt.op.Store(opID)
				perClient[c] = append(perClient[c], k.op(cl, opID, fmt.Sprintf("knn-%d", k.names.Add(1)), traced))
			}
		}(c)
	}
	wg.Wait()
	p.cpu = cpuTime() - cpu0
	p.wall = time.Since(start)
	p.rssMB = peakRSSMB()
	if queue != nil {
		k.acc.queue = queue.end()
	}

	var lats [][]time.Duration
	var calls, trips int64
	for _, ops := range perClient {
		var lat []time.Duration
		for _, o := range ops {
			lat = append(lat, o.wall)
			p.lat = append(p.lat, o.wall)
			calls += o.calls
			trips += o.roundTrips
			switch {
			case !o.ok:
				p.failed++
			case o.wall <= knnLimit:
				p.good++
			}
			if o.calls != ops[0].calls && p.ledgerErr == nil {
				p.ledgerErr = fmt.Errorf("identical kNN builds paid %d and %d oracle calls", ops[0].calls, o.calls)
			}
		}
		lats = append(lats, lat)
	}
	n := float64(max(p.ops(), 1))
	p.opsPerSec = closedLoopRate(lats)
	p.goodPerSec = p.opsPerSec * float64(p.good) / n
	p.callsPerOp = float64(calls) / n
	p.roundTripsPerOp = float64(trips) / n
	if got := k.raw.Calls() - calls0; got != calls && p.ledgerErr == nil {
		p.ledgerErr = fmt.Errorf("oracle counted %d calls, server session stats sum to %d", got, calls)
	}
	return p, nil
}

// op runs one create → client-driven kNN build → delete cycle. The
// session's server-side stats are read between build and delete for the
// call ledger; that request is excluded from the op's time and round
// trips.
func (k *knnRemote) op(cl *proxclient.Client, opID uint64, name string, traced bool) knnOp {
	var sess *proxclient.Session
	var err error
	r0 := cl.Requests()
	t0 := time.Now()
	k.tr.clientSpan(opID, "create", func(ctx context.Context) {
		sess, err = proxclient.CreateSession(ctx, cl, name, "tri",
			proxclient.SessionOptions{Seed: k.opts.seed, Bootstrap: true})
	})
	if err != nil {
		return knnOp{wall: time.Since(t0)}
	}
	var v core.View = sess
	if traced {
		v = wrapView(k.tr, sess, cl.Requests)
	}
	t1 := time.Now()
	g := prox.KNNGraph(v, knnK)
	t2 := time.Now()
	trips := cl.Requests() - r0
	buildErr := sess.OracleErr()

	var st core.Stats
	k.tr.clientSpan(opID, "stats", func(context.Context) { st = sess.Stats() })
	t3 := time.Now()
	k.tr.clientSpan(opID, "delete", func(ctx context.Context) { err = sess.Delete(ctx) })
	t4 := time.Now()
	if traced {
		k.tr.record(span{ID: k.tr.newID(), Op: opID, Layer: "prox", Name: "knn",
			Start: int64(t1.Sub(k.tr.t0)), End: int64(t2.Sub(k.tr.t0))})
		k.tr.opSpan(opID, "knn-remote", t0, t4)
		k.acc.add(st)
	}
	return knnOp{
		wall:       t2.Sub(t0) + t4.Sub(t3),
		roundTrips: trips + 1,
		calls:      st.OracleCalls,
		ok:         errors.Join(err, buildErr) == nil && sameKNN(g, k.ref),
	}
}

func (a *knnAcc) add(st core.Stats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.CacheHits += st.CacheHits
	a.stats.SavedComparisons += st.SavedComparisons
	a.stats.ResolvedComparisons += st.ResolvedComparisons
	a.stats.OracleCalls += st.OracleCalls
}

func (k *knnRemote) account(p *phase) (map[string]float64, []row) {
	spans := k.tr.snapshot()
	ops := float64(max(p.ops(), 1))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	op := sumSpans(spans, layerOp, "")
	direct := sumSpans(spans, layerClient, "")
	knn := sumSpans(spans, "prox", "knn")
	create := sumSpans(spans, layerClient, "create")
	h := httpAccount(spans, layerHTTP, layerService)
	viewNs := k.tr.view.totalNs()
	oracleNs := k.tr.oracle.ns.Load()

	rows := []row{
		{layer: "unattributed (benchmark loop)", count: 1, busy: ms(op.ns), self: ms(op.ns - direct.ns - knn.ns)},
		{layer: "prox", count: 1, busy: ms(knn.ns), self: ms(knn.ns - viewNs)},
		{layer: "proxclient", count: float64(k.tr.view.totalN()+direct.n) / ops, busy: ms(viewNs + direct.ns), self: ms(viewNs + direct.ns - h.client.ns)},
		{layer: "net (client RTT - handler)", count: float64(h.client.n) / ops, busy: ms(h.client.ns), self: ms(h.client.ns - h.server.ns)},
		{layer: "service", count: float64(h.server.n) / ops, busy: ms(h.server.ns), self: ms(h.server.ns - oracleNs)},
		{layer: "metric.oracle", count: float64(k.tr.oracle.n.Load()) / ops, busy: ms(oracleNs), self: ms(oracleNs)},
	}
	st := k.acc.stats
	comparisons := float64(st.CacheHits + st.SavedComparisons + st.ResolvedComparisons)
	v := map[string]float64{
		"proxclient.self_ms":          ms(viewNs + direct.ns - h.client.ns),
		"service.queue_depth_max":     k.acc.queue,
		"service.shed":                registrySum(k.reg, service.MetricShed),
		"core.saved_ratio":            float64(st.SavedComparisons) / math.Max(comparisons, 1),
		"core.cache_hit_ratio":        float64(st.CacheHits) / math.Max(comparisons, 1),
		"core.bootstrap_ms":           ms(create.ns),
		"metric.oracle_calls":         float64(st.OracleCalls) / ops,
		"metric.oracle_busy_ms":       ms(oracleNs),
		"metric.oracle_inflight_mean": float64(oracleNs) / float64(max(p.wall.Nanoseconds(), 1)),
		"prox.knn_ms":                 ms(knn.ns),
		"trace.op_wall_ms":            ms(op.ns),
		"trace.unattributed_ms":       ms(op.ns - direct.ns - knn.ns),
	}
	local, remote := k.tr.view.local.Load(), k.tr.view.remote.Load()
	v["proxclient.local_ratio"] = float64(local) / math.Max(float64(local+remote), 1)
	v["service.net_ms"] = float64(h.client.ns-h.server.ns) / 1e6 / float64(max(h.client.n, 1))
	h.clientMetrics(v)
	h.serverMetrics(v)
	k.tr.view.addCalls(v, ops)
	return v, rows
}
