// Command proxrouter is the thin reverse proxy in front of a sharded
// metricproxd cluster: it embeds the same consistent-hash ring the nodes
// use, sends every session-scoped request to the session's primary, and
// falls back through the session's replicas when the primary stops
// answering. It holds no session state of its own — ownership is a pure
// function of (member list, ring seed, session name) — so any number of
// routers can run side by side and a router restart loses nothing.
//
// Every client reaches a cluster through a router: internal/proxclient,
// curl, dashboards, and clients in other languages alike.
//
// Usage:
//
//	proxrouter -cluster a=http://h1:7600,b=http://h2:7600,c=http://h3:7600 -listen :7500
//
// The member list, -replicas, and -ring-seed must match the flags the
// metricproxd nodes were started with — a disagreeing ring routes
// sessions to non-owners, which costs cold rebuilds (never wrong
// answers, but all the oracle savings are lost).
//
// The router serves its own /metrics (cluster_requests_total by node and
// status, cluster_failovers_total, cluster_node_up) and /debug/pprof on
// the same listener. /healthz reports the prober's per-node view.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"metricprox/internal/buildinfo"
	"metricprox/internal/cluster"
	"metricprox/internal/obs"
	"metricprox/internal/obs/obshttp"
)

func main() {
	var (
		clusterFlag = flag.String("cluster", "", "cluster member list as name=url,... (required)")
		listenFlag  = flag.String("listen", ":7500", "address to serve the routed API, /metrics, and /debug/pprof on")
		replFlag    = flag.Int("replicas", 0, "replica owners per session beyond the primary (0 = default); must match the nodes")
		ringSeed    = flag.Int64("ring-seed", 0, "consistent-hash ring seed; must match the nodes")
		probeEvery  = flag.Duration("probe-interval", cluster.DefaultProbeInterval, "health-probe period")
		drainFlag   = flag.Duration("drain", 10*time.Second, "shutdown drain budget for in-flight requests")
		versionFlag = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *versionFlag {
		fmt.Println(buildinfo.String("proxrouter"))
		return
	}
	if *clusterFlag == "" {
		fmt.Fprintln(os.Stderr, "proxrouter: -cluster is required (name=url,...)")
		os.Exit(2)
	}
	nodes, err := cluster.ParseNodes(*clusterFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "proxrouter: -cluster: %v\n", err)
		os.Exit(2)
	}
	topo, err := cluster.NewTopology(cluster.Config{
		Nodes:    nodes,
		Replicas: *replFlag,
		Seed:     *ringSeed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "proxrouter: -cluster: %v\n", err)
		os.Exit(2)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "proxrouter: "+format+"\n", args...)
	}
	reg := obs.NewRegistry()
	prober := cluster.NewProber(cluster.ProberConfig{
		Topology: topo,
		Interval: *probeEvery,
		Registry: reg,
		Logf:     logf,
	})
	prober.Start()
	defer prober.Stop()

	router := cluster.NewRouter(cluster.RouterConfig{
		Topology: topo,
		Prober:   prober,
		Registry: reg,
		Logf:     logf,
	})

	mux := obshttp.Mux(reg)
	mux.Handle("/healthz", router.Handler())
	mux.Handle("/v1/", router.Handler())
	hs, err := obshttp.ServeHandler(*listenFlag, mux)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proxrouter: -listen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "proxrouter: routing %d nodes (%d owner(s) per session) on http://%s\n",
		len(topo.Nodes()), topo.Replicas()+1, hs.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	sig := <-stop
	fmt.Fprintf(os.Stderr, "proxrouter: %s received, draining (budget %s)\n", sig, *drainFlag)
	ctx, cancel := context.WithTimeout(context.Background(), *drainFlag)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "proxrouter: forced shutdown with requests in flight:", err)
	}
	fmt.Fprintln(os.Stderr, "proxrouter: drained, bye")
}
