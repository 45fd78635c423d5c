// Package service exposes the experiment harness over HTTP/JSON: bpserved's
// handlers, middleware, metrics, and request batching live here. Every run a
// request needs resolves through one shared, bounded run cache
// (experiments.RunCache): /v1/simulate and /v1/sweeps call its Resolve on a
// worker pool, one point each, and /v1/figures runs the CLI's figure code on
// a Harness over the same cache. The simulation core stays context-free;
// this layer adds the serving hygiene around it — request deadlines and
// client-disconnect cancellation, singleflight across requests, a global
// concurrency gate so a burst of requests cannot oversubscribe the host,
// structured request logs with stable request IDs, and a /metrics +
// /debug/pprof observability surface.
//
// Responses are byte-deterministic: the same request body yields the same
// response bytes at any worker count, hot or cold cache — the same contract
// the CLI's figure output keeps (verify.sh diffs both).
package service

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"bpredpower/internal/experiments"
	"bpredpower/internal/resultstore"
)

// Config sets the serving parameters. Zero values choose sane defaults; see
// each field.
type Config struct {
	// Parallel is the per-request simulation worker count (0 = GOMAXPROCS).
	Parallel int
	// CacheEntries bounds the shared run-cache LRU (0 = 4096; <0 = unbounded).
	CacheEntries int
	// MaxConcurrent bounds simulations executing at once across all requests
	// (0 = GOMAXPROCS).
	MaxConcurrent int
	// RequestTimeout is the server-side deadline applied to every /v1
	// request (0 = 2 minutes). A request may tighten it with timeout_ms but
	// never loosen it.
	RequestTimeout time.Duration
	// Store, when non-nil, layers a persistent on-disk result store under
	// the run cache: completed simulations are written through, and
	// restarts or replicas sharing the directory answer from it instead of
	// re-simulating. Responses are byte-identical with or without it.
	Store *resultstore.Store
	// Logger receives structured request logs (nil = slog.Default()).
	Logger *slog.Logger
}

// Server wires the handlers, cache, and metrics together. Build one with
// New and mount Handler on an http.Server.
type Server struct {
	cfg Config

	// Cache is the shared run cache. Exposed so operators (and tests) can
	// inspect Stats or attach hooks.
	Cache *experiments.RunCache

	metrics *Metrics
	log     *slog.Logger
	mux     *http.ServeMux
	reqSeq  atomic.Uint64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}

	s := &Server{
		cfg:     cfg,
		Cache:   experiments.NewRunCache(max(cfg.CacheEntries, 0)),
		metrics: NewMetrics(),
		log:     cfg.Logger,
		mux:     http.NewServeMux(),
	}
	s.Cache.Gate = make(chan struct{}, cfg.MaxConcurrent)
	if cfg.Store != nil {
		s.Cache.Store = cfg.Store
	}
	s.Cache.Hooks = experiments.RunCacheHooks{
		BeforeRun: func(context.Context) { s.metrics.SimStarted() },
		AfterRun:  func(r experiments.Run, err error) { s.metrics.SimFinished(r.Committed, err) },
	}

	s.mux.Handle("GET /v1/predictors", s.instrument("/v1/predictors", http.HandlerFunc(s.handlePredictors)))
	s.mux.Handle("GET /v1/workloads", s.instrument("/v1/workloads", http.HandlerFunc(s.handleWorkloads)))
	s.mux.Handle("POST /v1/simulate", s.instrument("/v1/simulate", http.HandlerFunc(s.handleSimulate)))
	s.mux.Handle("POST /v1/sweeps", s.instrument("/v1/sweeps", http.HandlerFunc(s.handleSweeps)))
	s.mux.Handle("GET /v1/figures/{n}", s.instrument("/v1/figures", http.HandlerFunc(s.handleFigure)))
	s.mux.Handle("GET /metrics", s.instrument("/metrics", http.HandlerFunc(s.handleMetrics)))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})

	// pprof must bypass the timeout middleware: profile collection runs as
	// long as the client asks.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the root handler to mount on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }
