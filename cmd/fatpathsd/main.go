// Command fatpathsd serves FatPaths fabrics as a service: a long-running
// HTTP/JSON daemon (internal/serve) keeping fabrics resident in an
// LRU-bounded cache so interactive clients get lock-free next-hop and
// path-diversity answers, copy-on-write what-if failure analysis, and
// scenario-matrix execution with streamed progress — without paying the
// fabric build per query.
//
// Usage:
//
//	go run ./cmd/fatpathsd                          # listen on :8095
//	go run ./cmd/fatpathsd -addr :9000 -max-fabrics 16
//	go run ./cmd/fatpathsd -cache-dir ~/.fatpaths-cache   # share the sweep cache
//
//	curl 'localhost:8095/nexthop?topo=SF&param=5&layers=4&rho=0.7&layer=1&src=3&dst=17'
//	curl 'localhost:8095/paths?topo=SF&param=5&layers=4&rho=0.7&src=3&dst=17'
//	curl -d '{"fabric":{"topology":{"kind":"SF","param":5},"layers":4,"rho":0.7},
//	         "failedEdges":[0,7],"queries":[{"layer":1,"src":3,"dst":17}]}' \
//	     localhost:8095/whatif
//	python3 -c 'import json; print(json.dumps({"matrix": json.load(open("examples/scenarios/failure_ladder.json"))}))' |
//	    curl --data-binary @- localhost:8095/scenarios
//	curl localhost:8095/healthz; curl localhost:8095/metrics
//
// Answers obey the determinism contract: at the same seed they are
// byte-identical to the offline engine (cmd/fatpaths, cmd/scenarios) —
// the daemon only changes where the fabric lives, never what it answers.
// SIGINT/SIGTERM drain in-flight requests and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// Connection timeouts. There is deliberately no WriteTimeout: /scenarios
// streams progress for as long as the run takes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr       = flag.String("addr", ":8095", "listen address")
		maxFabrics = flag.Int("max-fabrics", 8, "resident-fabric LRU capacity")
		cacheDir   = flag.String("cache-dir", "", "content-addressed scenario result cache directory, shared with cmd/scenarios")
		parallel   = flag.Int("parallel", 0, "scenario worker goroutines (0 = all cores)")
		drainSecs  = flag.Float64("drain-timeout", 30, "seconds to wait for in-flight requests on shutdown")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "fatpathsd: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	// The result cache opens here, once: an unusable -cache-dir fails the
	// daemon before it listens, not each /scenarios run after its 200.
	var cache *scenario.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = scenario.OpenCache(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "fatpathsd:", err)
			os.Exit(1)
		}
	}
	reg := obs.NewRegistry()
	s := serve.New(serve.Config{
		MaxFabrics:  *maxFabrics,
		Cache:       cache,
		Parallelism: *parallel,
	}, reg)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fatpathsd: listening on %s (max %d resident fabrics)\n", *addr, *maxFabrics)

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure before a signal arrives.
		fmt.Fprintln(os.Stderr, "fatpathsd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "fatpathsd: draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs*float64(time.Second)))
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "fatpathsd: shutdown:", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "fatpathsd:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "fatpathsd: stopped")
}
