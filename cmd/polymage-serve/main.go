// polymage-serve runs the pipeline-as-a-service HTTP server: registered
// benchmark apps and inline pipeline specs, compiled once into a program
// cache and executed on persistent per-program executors.
//
// Usage:
//
//	polymage-serve [-addr :8080] [-inflight N] [-queue N] [-timeout 60s]
//	               [-programs N] [-threads N] [-auto=false] [-no-specs]
//
// The cost-model auto-scheduler is the serving default (-auto); requests
// with explicit tiles, or with "auto": false in the body, keep the paper's
// threshold heuristic.
//
// Endpoints: POST /run, GET /healthz, GET /metrics[?stream=1s], GET /apps.
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight
// requests before closing the cached executors.
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

	_ "repro/internal/apps/gen" // ahead-of-time kernels for the Table-2 apps

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	inflight := flag.Int("inflight", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queued requests (0 = default 64, negative = no queue)")
	queueTimeout := flag.Duration("queue-timeout", 0, "max wait for an execution slot (0 = default 5s)")
	timeout := flag.Duration("timeout", 0, "per-request deadline (0 = default 60s)")
	programs := flag.Int("programs", 0, "compiled-program cache capacity (0 = default 32)")
	maxBody := flag.Int64("max-body", 0, "max /run body bytes (0 = default 64 MiB)")
	threads := flag.Int("threads", 0, "default worker threads per program (0 = GOMAXPROCS)")
	auto := flag.Bool("auto", true, "default to the cost-model auto-scheduler for requests without explicit tiles")
	noSpecs := flag.Bool("no-specs", false, "reject inline pipeline specs; serve registered apps only")
	noMetrics := flag.Bool("no-metrics", false, "disable per-program executor metrics")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	flag.Parse()

	svc := service.New(service.Config{
		MaxInFlight:    *inflight,
		MaxQueue:       *queue,
		QueueTimeout:   *queueTimeout,
		RequestTimeout: *timeout,
		MaxPrograms:    *programs,
		MaxBodyBytes:   *maxBody,
		Threads:        *threads,
		AutoSchedule:   *auto,
		DisableSpecs:   *noSpecs,
		DisableMetrics: *noMetrics,
	})
	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "polymage-serve listening on %s\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "polymage-serve: %v, draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections and wait for handlers, then drain the
	// service (in-flight pipeline runs) and close executors/arena.
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "polymage-serve: shutdown: %v\n", err)
	}
	if err := svc.Close(ctx); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "polymage-serve:", err)
	os.Exit(1)
}
