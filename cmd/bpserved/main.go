// Command bpserved serves predictor simulations over HTTP/JSON: the
// experiment harness behind a batched, cached, cancellable service API.
//
//	bpserved -addr 127.0.0.1:8149
//
//	GET  /v1/predictors            registered predictor configurations
//	GET  /v1/workloads             benchmarks and suite names
//	POST /v1/simulate              {"predictor":"Hybrid_1","workload":"SPECint2000","fidelity":"quick"}
//	POST /v1/sweeps                {"predictors":[...],"workload":"Subset7"} → streamed NDJSON grid results
//	GET  /v1/sweeps/{id}           replay a finished sweep or follow an in-flight one
//	GET  /v1/figures/{n}           a paper figure, rendered by the CLI code path
//	GET  /metrics                  Prometheus text format
//	GET  /debug/pprof/             live profiles
//	GET  /healthz                  readiness
//
// Identical requests return byte-identical JSON at any -parallel value, the
// same determinism contract the CLI keeps. Client disconnects and deadlines
// cancel the underlying simulations; SIGINT/SIGTERM drains inflight requests
// before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bpredpower/internal/resultstore"
	"bpredpower/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8149", "listen address")
	parallel := flag.Int("parallel", 0, "per-request simulation workers (0 = GOMAXPROCS); responses are identical at any value")
	maxConcurrent := flag.Int("max-concurrent", 0, "total simulations executing at once across requests (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache-entries", 4096, "run-cache LRU bound (negative = unbounded)")
	timeout := flag.Duration("timeout", 2*time.Minute, "server-side deadline per /v1 request")
	drain := flag.Duration("drain", 15*time.Second, "inflight-request drain budget on shutdown")
	storeDir := flag.String("store-dir", "", "directory for the persistent result store (empty = memory-only); replicas and restarts sharing it start warm, responses are identical either way")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "result-store size bound in bytes before GC (0 = 256 MiB, negative = unbounded)")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	var store *resultstore.Store
	if *storeDir != "" {
		var err error
		if store, err = resultstore.Open(*storeDir, resultstore.Config{MaxBytes: *storeMaxBytes}); err != nil {
			logger.Error("opening result store", slog.String("error", err.Error()))
			os.Exit(1)
		}
		logger.Info("result store open", slog.String("dir", *storeDir), slog.Int("entries", store.Stats().Entries))
	}
	srv := service.New(service.Config{
		Parallel:       *parallel,
		MaxConcurrent:  *maxConcurrent,
		CacheEntries:   *cacheEntries,
		RequestTimeout: *timeout,
		Store:          store,
		Logger:         logger,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() { //bplint:allow goroutine -- shutdown watcher; joined via the done channel before exit
		<-ctx.Done()
		logger.Info("shutting down", slog.Duration("drain", *drain))
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			logger.Error("shutdown", slog.String("error", err.Error()))
		}
		close(done)
	}()

	logger.Info("bpserved listening", slog.String("addr", *addr))
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", slog.String("error", err.Error()))
		os.Exit(1)
	}
	<-done
}
