package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"metricprox/internal/cluster"
	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/nsw"
	"metricprox/internal/obs"
	"metricprox/internal/obs/obshttp"
	"metricprox/internal/prox"
	"metricprox/internal/proxclient"
	"metricprox/internal/service"
	"metricprox/internal/service/api"
)

// search-cluster is the cluster's read/write mix: an open loop at a fixed
// offered rate through the router to a 3-node in-process cluster with
// cache stores and replication on. Setup builds each session's NSW graph
// (server-side, on the first /search) and warms every query of the pool,
// so a timed search repeats a traversal whose pairs are all resolved:
// searches pay no oracle calls. One request in ten is a /dist write on a
// pair no search touches, which pays exactly one call, commits an edge,
// appends to the cache store and ships a replication record, contending
// with the reads on the session lock and the bound store.
const (
	searchN        = 2000
	searchSessions = 4
	searchQueries  = 128
	searchK        = 10
	searchEf       = nsw.DefaultEfConstruction
	// searchRate is the offered load, in evenly spaced requests. Two
	// senders sustain about 5000/s through the router on a 2-CPU box, but
	// a shared host's CPU speed can swing by 2x within seconds; at 1000/s
	// the senders and servers stay under a fifth busy, and even spacing
	// (rather than Poisson bursts) keeps queueing behind the two senders
	// from swinging with the host's speed.
	searchRate = 1000.0
	// searchDistEvery puts one /dist write in every block of this many
	// requests, at a seeded position.
	searchDistEvery = 10
	// searchLimit is the latency limit goodput and the generator check
	// count against.
	searchLimit = 50 * time.Millisecond
	searchNodes = 3
)

type searchSession struct {
	name    string
	seed    int64
	queries []int
	answers map[int][]prox.Neighbor
	pairs   [][2]int // pairs the warmed server session has not resolved
}

type searchCluster struct {
	opts  options
	tr    *tracer
	space metric.Space
	sess  []*searchSession
	// searchNs is the in-process nsw Search time per warmed query.
	searchNs float64

	// Position in the request schedule, carried across phases.
	rng      *rand.Rand
	next     int
	nextPair []int

	sys  *clusterSys
	last searchPhase
}

// clusterSys is one running cluster: nodes, router, and the client side.
type clusterSys struct {
	raw     *metric.Oracle
	dir     string
	nodes   []*node
	regR    *obs.Registry
	prober  *cluster.Prober
	router  *http.Server
	rDone   chan struct{}
	url     string
	base    *http.Transport
	senders []*sender
}

type node struct {
	topo  *cluster.Topology
	reg   *obs.Registry
	repl  *cluster.Replicator
	srv   *service.Server
	hs    *http.Server
	done  chan struct{}
	dir   string
	httpc *http.Client
}

// sender is one open-loop sender goroutine's client: its own transport
// (so requests made without a context still carry the op id) and its own
// handles on the sessions.
type sender struct {
	rt   *transport
	sess []*proxclient.Session
}

func (s *searchCluster) prepare() error {
	s.space = datasets.SFPOIPlanar(searchN, s.opts.seed)
	pairsNeeded := int(searchRate*s.opts.seconds)/searchDistEvery + 64
	s.sess = make([]*searchSession, searchSessions)
	times := make([]float64, searchSessions)
	var wg sync.WaitGroup
	sem := make(chan struct{}, clients)
	for x := range s.sess {
		ss := &searchSession{name: fmt.Sprintf("search-%d", x), seed: seedStream(s.opts.seed, x)}
		s.sess[x] = ss
		wg.Add(1)
		sem <- struct{}{}
		go func(x int) {
			defer wg.Done()
			defer func() { <-sem }()
			times[x] = ss.reference(s.space, pairsNeeded)
		}(x)
	}
	wg.Wait()
	s.searchNs = median(times)
	s.rng = rand.New(rand.NewSource(seedStream(s.opts.seed, 99)))
	s.nextPair = make([]int, searchSessions)
	return nil
}

// reference replays, in process, what setup makes the server do with the
// session: bootstrap, build the graph with the server's parameters, and
// answer every pool query in order. It records the answers, the pairs
// still unresolved afterwards, and returns the mean Search time of a
// warmed query in nanoseconds.
func (ss *searchSession) reference(space metric.Space, pairs int) float64 {
	lms := core.PickLandmarks(searchN, log2Landmarks(searchN), ss.seed)
	s := core.NewSessionWithLandmarks(metric.NewOracle(space), core.SchemeTri, lms)
	s.Bootstrap(lms)
	g, err := nsw.Build(s, nsw.Params{Seed: ss.seed, Landmarks: lms})
	if err != nil {
		panic(fmt.Sprintf("in-process NSW build over an infallible oracle failed: %v", err))
	}
	rng := rand.New(rand.NewSource(ss.seed))
	ss.queries = rng.Perm(searchN)[:searchQueries]
	ss.answers = make(map[int][]prox.Neighbor, searchQueries)
	for _, q := range ss.queries {
		ss.answers[q], err = g.Search(s, q, searchK, searchEf)
		if err != nil {
			panic(fmt.Sprintf("in-process NSW search failed: %v", err))
		}
	}
	t0 := time.Now()
	for _, q := range ss.queries {
		_, _ = g.Search(s, q, searchK, searchEf) // warmed: no oracle calls, no error
	}
	perQuery := float64(time.Since(t0).Nanoseconds()) / searchQueries
	seen := make(map[[2]int]bool)
	for len(ss.pairs) < pairs {
		i, j := rng.Intn(searchN), rng.Intn(searchN)
		if i > j {
			i, j = j, i
		}
		if _, known := s.Known(i, j); known || i == j || seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		ss.pairs = append(ss.pairs, [2]int{i, j})
	}
	return perQuery
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// setup starts the cluster and the router, creates the sessions with
// bootstrap, builds their graphs and warms the query pool through the
// router, and waits until every replica has the whole log.
func (s *searchCluster) setup() (err error) {
	sys := &clusterSys{base: newTransport()}
	s.sys = sys
	sys.raw = metric.NewOracle(s.space)
	var fo metric.FallibleOracle = sys.raw
	if s.opts.trace {
		fo = &oracle{tr: s.tr, base: sys.raw}
	}
	if err := os.MkdirAll(s.opts.tmp, 0o755); err != nil {
		return err
	}
	if sys.dir, err = os.MkdirTemp(s.opts.tmp, "search-cluster-"); err != nil {
		return err
	}
	var members []cluster.Node
	var lns []net.Listener
	for x := 0; x < searchNodes; x++ {
		ln, err := listen()
		if err != nil {
			return err
		}
		lns = append(lns, ln)
		members = append(members, cluster.Node{Name: string(rune('a' + x)), URL: "http://" + ln.Addr().String()})
	}
	for x, m := range members {
		n := &node{reg: obs.NewRegistry(), dir: filepath.Join(sys.dir, m.Name)}
		if err := os.Mkdir(n.dir, 0o755); err != nil {
			return err
		}
		if n.topo, err = cluster.NewTopology(cluster.Config{Self: m.Name, Nodes: members, Replicas: 1}); err != nil {
			return err
		}
		n.repl = cluster.NewReplicator(cluster.ReplicatorConfig{
			Topology:   n.topo,
			HTTPClient: &http.Client{Transport: s.tr.transport(layerRepl, sys.base), Timeout: 5 * time.Second},
			Registry:   n.reg,
		})
		if n.srv, err = service.New(service.Config{
			Oracle: fo, CacheDir: n.dir, Cluster: n.topo, Replicator: n.repl, Registry: n.reg,
		}); err != nil {
			return err
		}
		n.repl.Start()
		n.hs, n.done = serve(lns[x], s.tr.handler(layerService, daemonHandler(n.srv, n.reg)))
		n.httpc = &http.Client{Transport: sys.base}
		sys.nodes = append(sys.nodes, n)
	}

	topo, err := cluster.NewTopology(cluster.Config{Nodes: members, Replicas: 1})
	if err != nil {
		return err
	}
	sys.regR = obs.NewRegistry()
	sys.prober = cluster.NewProber(cluster.ProberConfig{Topology: topo, Registry: sys.regR})
	sys.prober.Start()
	rt := cluster.NewRouter(cluster.RouterConfig{
		Topology:   topo,
		Prober:     sys.prober,
		HTTPClient: &http.Client{Transport: s.tr.transport(layerUpstream, sys.base)},
		Registry:   sys.regR,
	})
	mux := obshttp.Mux(sys.regR)
	mux.Handle("/healthz", rt.Handler())
	mux.Handle("/v1/", rt.Handler())
	ln, err := listen()
	if err != nil {
		return err
	}
	sys.url = "http://" + ln.Addr().String()
	sys.router, sys.rDone = serve(ln, s.tr.handler(layerRouter, mux))

	// Create and warm every session, two at a time: the builds are CPU
	// bound and run on the sessions' primaries.
	ctx := context.Background()
	setupClient := proxclient.New(sys.url, proxclient.Options{HTTPClient: &http.Client{Transport: sys.base}})
	errs := make([]error, len(s.sess))
	var wg sync.WaitGroup
	sem := make(chan struct{}, clients)
	for x, ss := range s.sess {
		wg.Add(1)
		sem <- struct{}{}
		go func(x int, ss *searchSession) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[x] = ss.warm(ctx, setupClient)
		}(x, ss)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	for c := 0; c < clients; c++ {
		sd := &sender{rt: s.tr.transport(layerHTTP, sys.base)}
		cl := proxclient.New(sys.url, proxclient.Options{HTTPClient: &http.Client{Transport: sd.rt}})
		for _, ss := range s.sess {
			h, err := proxclient.CreateSession(ctx, cl, ss.name, "tri",
				proxclient.SessionOptions{Seed: ss.seed, Bootstrap: true})
			if err != nil {
				return fmt.Errorf("attach %s: %w", ss.name, err)
			}
			sd.sess = append(sd.sess, h)
		}
		sys.senders = append(sys.senders, sd)
	}
	_, err = s.catchUp(ctx)
	return err
}

// warm creates the session, triggers its graph build with the first
// search and answers the whole pool in order, checking every answer.
func (ss *searchSession) warm(ctx context.Context, cl *proxclient.Client) error {
	h, err := proxclient.CreateSession(ctx, cl, ss.name, "tri",
		proxclient.SessionOptions{Seed: ss.seed, Bootstrap: true})
	if err != nil {
		return fmt.Errorf("create %s: %w", ss.name, err)
	}
	for _, q := range ss.queries {
		got, _, err := h.RemoteSearch(ctx, q, searchK, proxclient.SearchParams{EfSearch: searchEf})
		if err != nil {
			return fmt.Errorf("warm %s q=%d: %w", ss.name, q, err)
		}
		if !sameNeighbors(got, ss.answers[q]) {
			return fmt.Errorf("warm %s q=%d: answer differs from the in-process graph", ss.name, q)
		}
	}
	return nil
}

// catchUp waits until, for every session, the replica's log is as long
// as the primary's, and returns how long that took.
func (s *searchCluster) catchUp(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for _, ss := range s.sess {
		owners := s.sys.nodes[0].topo.Owners(ss.name)
		for {
			prim, err := s.replSeq(ctx, owners[0], ss.name)
			if err != nil {
				return 0, err
			}
			rep, err := s.replSeq(ctx, owners[1], ss.name)
			if err != nil {
				return 0, err
			}
			if rep == prim {
				break
			}
			if err := metric.SleepCtx(ctx, 2*time.Millisecond); err != nil {
				return 0, fmt.Errorf("replica of %s stuck at %d of %d records", ss.name, rep, prim)
			}
		}
	}
	return time.Since(t0), nil
}

// replSeq reads a node's log length for a session (GET /v1/repl/{name}).
func (s *searchCluster) replSeq(ctx context.Context, n cluster.Node, name string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/v1/repl/"+name, nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.sys.nodes[0].httpc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, nil // a replica that has received nothing yet
	}
	var st api.ReplStatusResponse
	if err := decodeJSON(resp, &st); err != nil {
		return 0, fmt.Errorf("repl status of %s on %s: %w", name, n.Name, err)
	}
	return st.Seq, nil
}

func (s *searchCluster) teardown() {
	sys := s.sys
	if sys == nil {
		return
	}
	s.sys = nil
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if sys.router != nil {
		_ = sys.router.Shutdown(ctx) // a forced close still ends Serve
		<-sys.rDone
	}
	if sys.prober != nil {
		sys.prober.Stop()
	}
	for _, n := range sys.nodes {
		n.srv.BeginDrain()
	}
	for _, n := range sys.nodes {
		_ = n.hs.Shutdown(ctx)
		<-n.done
		n.srv.Close()
		n.repl.Close()
	}
	sys.base.CloseIdleConnections()
	_ = os.RemoveAll(sys.dir)
}

// request is one scheduled request and what became of it.
type request struct {
	due  time.Duration // offset from the phase start
	sess int
	dist bool
	q    int
	pair [2]int
	sent time.Duration
	// origin is when the request's latency starts (see openLoop).
	origin time.Duration
	done   time.Time
	op     uint64
	ok     bool
}

// schedule draws the phase's requests: evenly spaced at searchRate, one
// /dist per block of searchDistEvery at a seeded position, the rest
// searches over the session's query pool, sessions drawn at random.
func (s *searchCluster) schedule(d time.Duration) ([]*request, error) {
	var reqs []*request
	var at float64
	slot := 0
	for {
		at += 1 / searchRate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return reqs, nil
		}
		if s.next%searchDistEvery == 0 {
			slot = s.rng.Intn(searchDistEvery)
		}
		r := &request{due: due, sess: s.rng.Intn(searchSessions), dist: s.next%searchDistEvery == slot}
		ss := s.sess[r.sess]
		if r.dist {
			if s.nextPair[r.sess] == len(ss.pairs) {
				return nil, fmt.Errorf("session %s ran out of unresolved pairs", ss.name)
			}
			r.pair = ss.pairs[s.nextPair[r.sess]]
			s.nextPair[r.sess]++
		} else {
			r.q = ss.queries[s.rng.Intn(searchQueries)]
		}
		s.next++
		reqs = append(reqs, r)
	}
}

func (s *searchCluster) run(d time.Duration, traced bool) (*phase, error) {
	sys := s.sys
	reqs, err := s.schedule(d)
	if err != nil {
		return nil, err
	}
	p := &phase{}
	ctx := context.Background()
	var queue, lag *sampler
	if traced {
		queue = sample(5*time.Millisecond, func() float64 {
			m := 0.0
			for _, n := range sys.nodes {
				m = max(m, n.reg.Gauge(service.MetricQueueDepth).Value())
			}
			return m
		})
		lag = sample(5*time.Millisecond, func() float64 {
			m := 0.0
			for _, n := range sys.nodes {
				m = max(m, n.reg.Gauge(cluster.MetricReplLag).Value())
			}
			return m
		})
	}
	before := s.counters()
	calls0 := sys.raw.Calls()
	bytes0 := dirSize(sys.dir)
	cpu0 := cpuTime()
	due := make([]time.Duration, len(reqs))
	for x, r := range reqs {
		due[x] = r.due
	}
	start, sent, origin := openLoop(due, len(sys.senders), func(sd, x int) {
		s.send(ctx, sys.senders[sd], reqs[x])
	})
	p.cpu = cpuTime() - cpu0
	p.wall = time.Since(start)
	p.rssMB = peakRSSMB()
	catchup, err := s.catchUp(ctx)
	if err != nil {
		return nil, err
	}
	after := s.counters()

	for x, r := range reqs {
		r.sent, r.origin = sent[x], origin[x]
		lat := r.done.Sub(start) - r.origin
		p.lat = append(p.lat, lat)
		switch {
		case !r.ok:
			p.failed++
		case lat <= searchLimit:
			p.good++
		}
	}
	n := float64(max(p.ops(), 1))
	p.opsPerSec = float64(p.ops()-p.failed) / p.wall.Seconds()
	p.goodPerSec = float64(p.good) / p.wall.Seconds()
	p.roundTripsPerOp = 1
	calls := sys.raw.Calls() - calls0
	p.callsPerOp = float64(calls) / n
	if err := s.ledger(ctx); err != nil {
		p.ledgerErr = err
	}

	lagP99 := genLagMs(due, sent)
	for _, r := range reqs {
		s.tr.opSpan(r.op, "request", start.Add(r.origin), r.done)
	}
	s.last = searchPhase{
		catchup:   catchup.Seconds(),
		lagMs:     lagP99,
		bytes:     float64(dirSize(sys.dir) - bytes0),
		failovers: after.failovers - before.failovers,
		replRecs:  after.replSent - before.replSent,
		shed:      after.shed - before.shed,
		reqs:      reqs,
	}
	if genBehind(lagP99, searchLimit) {
		fmt.Fprintf(os.Stderr, "perfbench: open-loop generator fell behind: p99 send lag %.1f ms exceeds the %v limit; this run's latencies are not valid\n", lagP99, searchLimit)
	}
	if queue != nil {
		s.last.queueMax = queue.end()
		s.last.lagMax = lag.end()
	}
	return p, nil
}

// send issues one request and records its outcome.
func (s *searchCluster) send(ctx context.Context, sd *sender, r *request) {
	opID := s.tr.newID()
	sd.rt.op.Store(opID)
	h := sd.sess[r.sess]
	if r.dist {
		var d float64
		var err error
		s.tr.clientSpan(opID, "dist", func(context.Context) { d, err = h.DistErr(r.pair[0], r.pair[1]) })
		r.ok = err == nil && math.Float64bits(d) == math.Float64bits(s.space.Distance(r.pair[0], r.pair[1]))
	} else {
		var got []prox.Neighbor
		var err error
		s.tr.clientSpan(opID, "search", func(ctx context.Context) {
			got, _, err = h.RemoteSearch(ctx, r.q, searchK, proxclient.SearchParams{EfSearch: searchEf})
		})
		r.ok = err == nil && sameNeighbors(got, s.sess[r.sess].answers[r.q])
	}
	r.done = time.Now()
	r.op = opID
}

// ledger checks the cluster's oracle count against the sum of the
// sessions' server-side stats, read through the router.
func (s *searchCluster) ledger(ctx context.Context) error {
	var sum int64
	for _, h := range s.sys.senders[0].sess {
		var st api.StatsResponse
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.sys.url+"/v1/sessions/"+h.Name(), nil)
		if err != nil {
			return err
		}
		resp, err := s.sys.nodes[0].httpc.Do(req)
		if err != nil {
			return err
		}
		err = decodeJSON(resp, &st)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("stats of %s: %w", h.Name(), err)
		}
		sum += st.OracleCalls
	}
	if got := s.sys.raw.Calls(); got != sum {
		return fmt.Errorf("oracle counted %d calls, server session stats sum to %d", got, sum)
	}
	return nil
}

// counters reads the cluster counters the traced run reports.
type clusterCounters struct{ failovers, replSent, shed float64 }

func (s *searchCluster) counters() clusterCounters {
	c := clusterCounters{failovers: registrySum(s.sys.regR, cluster.MetricRouterFailovers)}
	for _, n := range s.sys.nodes {
		c.replSent += registrySum(n.reg, cluster.MetricReplSentRecords)
		c.shed += registrySum(n.reg, service.MetricShed)
	}
	return c
}

// searchPhase keeps what account needs from the last phase.
type searchPhase struct {
	catchup, lagMs, bytes     float64
	failovers, replRecs, shed float64
	queueMax, lagMax          float64
	reqs                      []*request
}

func dirSize(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

func sameNeighbors(a, b []prox.Neighbor) bool {
	return sameKNN([][]prox.Neighbor{a}, [][]prox.Neighbor{b})
}

func (s *searchCluster) account(p *phase) (map[string]float64, []row) {
	spans := s.tr.snapshot()
	ops := float64(max(p.ops(), 1))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	op := sumSpans(spans, layerOp, "")
	direct := sumSpans(spans, layerClient, "")
	var queueNs int64
	for _, r := range s.last.reqs {
		queueNs += int64(r.sent - r.origin)
	}
	h1 := httpAccount(spans, layerHTTP, layerRouter)
	h2 := httpAccount(spans, layerUpstream, layerService)
	oracleNs := s.tr.oracle.ns.Load()
	repl := sumSpans(spans, layerRepl, "")
	replH := sumSpans(spans, layerService, "repl")

	rows := []row{
		{layer: "unattributed (generator + benchmark loop)", count: 1, busy: ms(op.ns), self: ms(op.ns - queueNs - direct.ns)},
		{layer: "sender queue (all senders busy)", count: 1, busy: ms(queueNs), self: ms(queueNs), wait: ms(queueNs)},
		{layer: "proxclient", count: float64(direct.n) / ops, busy: ms(direct.ns), self: ms(direct.ns - h1.client.ns)},
		{layer: "net (client RTT - router handler)", count: float64(h1.client.n) / ops, busy: ms(h1.client.ns), self: ms(h1.client.ns - h1.server.ns)},
		{layer: "cluster.router", count: float64(h1.server.n) / ops, busy: ms(h1.server.ns), self: ms(h1.server.ns - h2.client.ns)},
		{layer: "net (router RTT - node handler)", count: float64(h2.client.n) / ops, busy: ms(h2.client.ns), self: ms(h2.client.ns - h2.server.ns)},
		{layer: "service", count: float64(h2.server.n) / ops, busy: ms(h2.server.ns), self: ms(h2.server.ns - oracleNs)},
		{layer: "metric.oracle", count: float64(s.tr.oracle.n.Load()) / ops, busy: ms(oracleNs), self: ms(oracleNs)},
		{layer: "replication send", count: float64(repl.n) / ops, busy: ms(repl.ns), self: ms(repl.ns), background: true},
		{layer: "replication apply", count: float64(replH.n) / ops, busy: ms(replH.ns), self: ms(replH.ns), background: true},
	}
	reqN := float64(max(h1.client.n, 1))
	var buildNs, builds float64
	for _, n := range s.sys.nodes {
		hs := n.reg.Histogram(service.MetricSearchBuildLatency)
		buildNs += float64(hs.Sum())
		builds += float64(hs.Count())
	}
	v := map[string]float64{
		"proxclient.self_ms":           ms(direct.ns - h1.client.ns),
		"service.net_ms":               float64(h1.client.ns-h1.server.ns+h2.client.ns-h2.server.ns) / 1e6 / reqN,
		"service.queue_depth_max":      s.last.queueMax,
		"service.shed":                 s.last.shed,
		"cluster.router_self_ms":       float64(h1.server.ns-h2.client.ns) / 1e6 / reqN,
		"cluster.failovers":            s.last.failovers,
		"cluster.repl_records":         s.last.replRecs,
		"cluster.repl_lag_records_max": s.last.lagMax,
		"cluster.repl_catchup_s":       s.last.catchup,
		"metric.oracle_calls":          p.callsPerOp,
		"metric.oracle_busy_ms":        ms(oracleNs),
		"metric.oracle_inflight_mean":  float64(oracleNs) / float64(max(p.wall.Nanoseconds(), 1)),
		"nsw.build_s":                  buildNs / 1e9 / math.Max(builds, 1),
		"nsw.search_ms":                s.searchNs / 1e6,
		"cachestore.bytes_per_op":      s.last.bytes / ops,
		"gen.lag_ms":                   s.last.lagMs,
		"trace.op_wall_ms":             ms(op.ns),
		"trace.unattributed_ms":        ms(op.ns - queueNs - direct.ns),
	}
	if s.last.lagMs > float64(searchLimit)/float64(time.Millisecond) {
		v["gen.behind"] = 1
	}
	h1.clientMetrics(v)
	h2.serverMetrics(v)
	return v, rows
}
