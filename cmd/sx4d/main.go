// Command sx4d serves the simulation models over HTTP: the NCAR suite
// as a service. POST /v1/run answers one query (suite × machine ×
// fault seed), POST /v1/sweep streams answers to NDJSON bulk
// submissions, GET /v1/machines lists the registry, GET /v1/stats
// reports the cache and coalescing counters, and GET /healthz is the
// liveness probe. Identical queries are exact cache hits: every
// response is a pure function of the request and the machine
// configuration, content-addressed and served byte-identically on
// repeat.
//
// Usage:
//
//	go run ./cmd/sx4d                          # listen on 127.0.0.1:8700
//	go run ./cmd/sx4d -addr 127.0.0.1:0 -portfile /tmp/sx4d.port
//	curl -s localhost:8700/healthz
//	curl -s -d '{"machine":"sx4-32"}' localhost:8700/v1/run
//
// With -addr :0 the kernel picks a free port; -portfile publishes the
// bound address for scripts (the serve-smoke harness uses this).
// -cachebytes bounds the memory cached answers may hold (32 MiB by
// default); an evicted answer is recomputed byte-identically. The
// daemon drains in-flight requests and exits cleanly on SIGINT or
// SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sx4bench/internal/serve"

	_ "sx4bench" // link the models in; their inits register the machines
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8700", "listen address (host:port; port 0 picks a free port)")
	portfile := flag.String("portfile", "", "write the bound address to this file once listening")
	maxconcurrent := flag.Int("maxconcurrent", 0, "max simultaneous simulation executions (0 = default)")
	timeout := flag.Duration("timeout", 0, "per-query wall-time bound (0 = none)")
	maxbody := flag.Int64("maxbody", 0, "request body size cap in bytes (0 = default)")
	queuewait := flag.Duration("queuewait", 0, "max admission-queue wait before 503 (0 = request deadline only)")
	queuedepth := flag.Int("queuedepth", 0, "admission queue depth per endpoint class (0 = default)")
	cachefile := flag.String("cache", "", "cache snapshot path: warm-start from it on boot, write it on drain (empty = no persistence)")
	snapinterval := flag.Duration("snapshot-interval", 30*time.Second, "periodic snapshot cadence when -cache is set")
	cachebytes := flag.Int64("cachebytes", 0, "memory budget in bytes for cached answers: responses get 3/4, fleet scenarios 1/4 (0 = 32 MiB)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "sx4d: unexpected arguments: %v\n", flag.Args())
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sx4d: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sx4d: %v\n", err)
			ln.Close()
			return 1
		}
	}
	fmt.Printf("sx4d listening on %s\n", bound)

	srv := serve.New(serve.Config{
		MaxConcurrent:  *maxconcurrent,
		MaxBodyBytes:   *maxbody,
		RequestTimeout: *timeout,
		QueueWait:      *queuewait,
		QueueDepth:     *queuedepth,
		CacheBytes:     *cachebytes,
		Now:            time.Now,
	})
	if *cachefile != "" {
		// Warm-start before serving: a damaged snapshot is logged and
		// ignored (serve cold, overwrite it at the next snapshot) — the
		// daemon must come up even when its disk state does not.
		n, err := srv.LoadSnapshot(*cachefile)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "sx4d: ignoring snapshot: %v\n", err)
		case n > 0:
			fmt.Printf("sx4d restored %d cached responses from %s\n", n, *cachefile)
		}
	}

	hs := &http.Server{Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// Periodic snapshots bound the cache lost to a hard kill to one
	// interval; the on-drain snapshot below makes a clean stop lossless.
	snapdone := make(chan struct{})
	if *cachefile != "" && *snapinterval > 0 {
		ticker := time.NewTicker(*snapinterval)
		go func() {
			defer close(snapdone)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := srv.WriteSnapshot(*cachefile); err != nil {
						fmt.Fprintf(os.Stderr, "sx4d: snapshot: %v\n", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	} else {
		close(snapdone)
	}

	// drain snapshots the final state once serving has stopped, so the
	// file on disk reflects every query the daemon ever answered.
	drain := func() {
		<-snapdone
		if *cachefile == "" {
			return
		}
		if err := srv.WriteSnapshot(*cachefile); err != nil {
			fmt.Fprintf(os.Stderr, "sx4d: final snapshot: %v\n", err)
		}
	}

	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting, let in-flight queries finish.
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "sx4d: shutdown: %v\n", err)
			drain()
			return 1
		}
		drain()
		fmt.Println("sx4d stopped")
		return 0
	case err := <-errc:
		drain()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "sx4d: %v\n", err)
			return 1
		}
		return 0
	}
}
