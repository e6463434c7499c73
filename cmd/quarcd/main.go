// Command quarcd serves the quarc evaluation pipeline over HTTP: one
// resident engine with a content-addressed result cache, singleflight
// deduplication and a bounded worker pool (noc/service) behind a small
// JSON API.
//
//	POST /v1/evaluate   one noc.Spec        -> one noc.Result
//	POST /v1/sweep      {spec, rates}       -> one Result per rate
//	GET  /v1/trace/{fp}                     -> the Result (with its recorded
//	                                           time series) of a previous
//	                                           evaluation, by content address
//	GET  /dashboard                         -> static time-series viewer
//	GET  /v1/registry                       -> the topology/router/
//	                                           pattern/arrival/spatial names
//	GET  /v1/healthz                        -> status + cache/pool stats
//
// A spec evaluated with "metrics": true carries a bucketed time series
// in its Result ("series": per-channel utilization, injections,
// ejections, latency sums, queue occupancy), which /v1/trace re-serves
// by the spec's fingerprint — from the cache, the durable store, or an
// evaluation still in flight.
//
// Example:
//
//	quarcd -addr :8080 -workers 8 -cache 4096 -store /var/lib/quarc &
//	curl -s localhost:8080/v1/evaluate -d '{"topology":"quarc","n":16,"rate":0.002,"alpha":0.05,"pattern":"localized","dests":4}'
//
// With -store, results are persisted to a durable on-disk store keyed
// by the spec's content address: a restarted daemon serves previously
// computed specs warm, bitwise-identical, without re-simulating.
//
// The same JSON documents drive quarcsim -spec, so a scenario debugged
// on the command line is served unchanged.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"quarc/noc/service"
	"quarc/noc/service/store"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("quarcd: ")

	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "evaluation worker pool size (0: GOMAXPROCS)")
	cache := flag.Int("cache", 1024, "result cache entries")
	scenarios := flag.Int("scenarios", 64, "compiled base-scenario cache entries")
	queue := flag.Int("queue", 0, "pending-job queue depth (0: 4x workers)")
	storeDir := flag.String("store", "", "durable result store directory (empty: memory only)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-evaluation server deadline, answered with 504 (0: none)")
	readTimeout := flag.Duration("read-timeout", time.Minute, "connection read deadline")
	writeTimeout := flag.Duration("write-timeout", 5*time.Minute, "connection write deadline")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline for in-flight requests")
	flag.Parse()

	cfg := service.Config{
		CacheEntries:    *cache,
		ScenarioEntries: *scenarios,
		Workers:         *workers,
		QueueDepth:      *queue,
	}
	if *storeDir != "" {
		st, err := store.Open(store.Config{Dir: *storeDir})
		if err != nil {
			log.Fatalf("opening store: %v", err)
		}
		cfg.Store = st
		log.Printf("store %s: %d durable results, %d quarantined", *storeDir, st.Len(), st.Quarantined())
	}
	ev := service.New(cfg)

	// An explicit listener (rather than ListenAndServe) pins down the
	// bound address, so ":0" works for tests and the log line names the
	// real port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	srv := &http.Server{
		Handler:           service.NewHandlerConfig(ev, service.HandlerConfig{RequestTimeout: *requestTimeout}),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("serving on %s (workers=%d cache=%d)", ln.Addr(), ev.Stats().Workers, *cache)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: report degraded on healthz so load balancers
	// rotate away, stop accepting, drain in-flight requests within the
	// deadline, then stop the evaluation pool.
	ev.SetDraining(true)
	log.Printf("shutting down (draining up to %s)", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	ev.Close()
	st := ev.Stats()
	log.Printf("stopped: %d evaluations, %d cache hits, %d coalesced, %d store hits",
		st.Evaluations, st.Hits, st.Coalesced, st.StoreHits)
}
