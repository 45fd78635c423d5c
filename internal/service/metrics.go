package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"bpredpower/internal/experiments"
	"bpredpower/internal/resultstore"
)

// Metrics is the service's hand-rolled Prometheus-text-format registry: a
// fixed set of counters and gauges wide enough for the questions an operator
// asks of a simulation service — request volume and latency per route and
// status, cache effectiveness, worker-pool occupancy, and simulation
// throughput — with none of the dependency weight of a metrics library.
//
// Everything is either an atomic (hot-path counters) or guarded by mu (the
// label-keyed request map). Rendering sorts every label set, so /metrics
// output is deterministic for a given state.
type Metrics struct {
	mu       sync.Mutex
	requests map[routeCode]uint64
	latSum   map[string]float64 // seconds, by route
	latCount map[string]uint64

	inflight  atomic.Int64  // requests currently being served
	simBusy   atomic.Int64  // simulations currently executing (pool occupancy)
	simRuns   atomic.Uint64 // completed simulations
	simInsts  atomic.Uint64 // committed instructions across completed runs
	simErrors atomic.Uint64 // simulations ending in error (cancellation)
}

type routeCode struct {
	route string
	code  int
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests: map[routeCode]uint64{},
		latSum:   map[string]float64{},
		latCount: map[string]uint64{},
	}
}

// Observe records one finished request.
func (m *Metrics) Observe(route string, code int, seconds float64) {
	m.mu.Lock()
	m.requests[routeCode{route, code}]++
	m.latSum[route] += seconds
	m.latCount[route]++
	m.mu.Unlock()
}

// SimStarted / SimFinished bracket one cache-miss simulation; they are wired
// into the RunCache hooks so occupancy covers every harness sharing the
// cache.
func (m *Metrics) SimStarted() { m.simBusy.Add(1) }

// SimFinished records a simulation's outcome. committed is the measured
// instruction count, the numerator of the simulated-instructions/sec rate.
func (m *Metrics) SimFinished(committed uint64, err error) {
	m.simBusy.Add(-1)
	if err != nil {
		m.simErrors.Add(1)
		return
	}
	m.simRuns.Add(1)
	m.simInsts.Add(committed)
}

// RequestStarted / RequestDone bracket the inflight gauge.
func (m *Metrics) RequestStarted() { m.inflight.Add(1) }

// RequestDone decrements the inflight gauge.
func (m *Metrics) RequestDone() { m.inflight.Add(-1) }

// WriteTo renders the registry in Prometheus text exposition format,
// folding in a cache snapshot, the persistent store's snapshot when one is
// configured (ss may be nil — the cache-level store counters still render,
// at zero, so scrapes see a stable metric set), and the configured
// simulation capacity.
func (m *Metrics) WriteTo(w io.Writer, cs experiments.CacheStats, ss *resultstore.Stats, capacity int) {
	m.mu.Lock()
	reqKeys := make([]routeCode, 0, len(m.requests))
	for k := range m.requests { //bplint:allow maprange -- keys are sorted before rendering
		reqKeys = append(reqKeys, k)
	}
	routes := make([]string, 0, len(m.latCount))
	for r := range m.latCount { //bplint:allow maprange -- keys are sorted before rendering
		routes = append(routes, r)
	}
	reqs := make(map[routeCode]uint64, len(m.requests))
	for k, v := range m.requests { //bplint:allow maprange -- copied under lock, rendered sorted below
		reqs[k] = v
	}
	latSum := make(map[string]float64, len(m.latSum))
	latCount := make(map[string]uint64, len(m.latCount))
	for r, v := range m.latSum { //bplint:allow maprange -- copied under lock, rendered sorted below
		latSum[r] = v
	}
	for r, v := range m.latCount { //bplint:allow maprange -- copied under lock, rendered sorted below
		latCount[r] = v
	}
	m.mu.Unlock()

	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].route != reqKeys[j].route {
			return reqKeys[i].route < reqKeys[j].route
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	sort.Strings(routes)

	fmt.Fprintln(w, "# HELP bpserved_requests_total HTTP requests served, by route and status code.")
	fmt.Fprintln(w, "# TYPE bpserved_requests_total counter")
	for _, k := range reqKeys {
		fmt.Fprintf(w, "bpserved_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, reqs[k])
	}
	fmt.Fprintln(w, "# HELP bpserved_request_seconds Wall-clock request latency, by route.")
	fmt.Fprintln(w, "# TYPE bpserved_request_seconds summary")
	for _, r := range routes {
		fmt.Fprintf(w, "bpserved_request_seconds_sum{route=%q} %g\n", r, latSum[r])
		fmt.Fprintf(w, "bpserved_request_seconds_count{route=%q} %d\n", r, latCount[r])
	}
	fmt.Fprintln(w, "# HELP bpserved_inflight_requests Requests currently being served.")
	fmt.Fprintln(w, "# TYPE bpserved_inflight_requests gauge")
	fmt.Fprintf(w, "bpserved_inflight_requests %d\n", m.inflight.Load())

	fmt.Fprintln(w, "# HELP bpserved_cache_hits_total Run-cache lookups answered from memory.")
	fmt.Fprintln(w, "# TYPE bpserved_cache_hits_total counter")
	fmt.Fprintf(w, "bpserved_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintln(w, "# HELP bpserved_cache_misses_total Run-cache lookups that started a simulation.")
	fmt.Fprintln(w, "# TYPE bpserved_cache_misses_total counter")
	fmt.Fprintf(w, "bpserved_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintln(w, "# HELP bpserved_cache_evictions_total Completed results dropped by the LRU bound.")
	fmt.Fprintln(w, "# TYPE bpserved_cache_evictions_total counter")
	fmt.Fprintf(w, "bpserved_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintln(w, "# HELP bpserved_cache_hit_ratio Hits over lookups since start.")
	fmt.Fprintln(w, "# TYPE bpserved_cache_hit_ratio gauge")
	lookups := cs.Hits + cs.Misses
	ratio := 0.0
	if lookups != 0 {
		ratio = float64(cs.Hits) / float64(lookups)
	}
	fmt.Fprintf(w, "bpserved_cache_hit_ratio %g\n", ratio)
	fmt.Fprintln(w, "# HELP bpserved_cache_entries Completed results resident in the run cache.")
	fmt.Fprintln(w, "# TYPE bpserved_cache_entries gauge")
	fmt.Fprintf(w, "bpserved_cache_entries %d\n", cs.Entries)
	fmt.Fprintln(w, "# HELP bpserved_cache_bytes Approximate bytes held by cached results.")
	fmt.Fprintln(w, "# TYPE bpserved_cache_bytes gauge")
	fmt.Fprintf(w, "bpserved_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintln(w, "# HELP bpserved_cache_programs Memoized program images.")
	fmt.Fprintln(w, "# TYPE bpserved_cache_programs gauge")
	fmt.Fprintf(w, "bpserved_cache_programs %d\n", cs.Programs)
	fmt.Fprintln(w, "# HELP bpserved_cache_inflight Cache-miss computes in progress (singleflight leaders).")
	fmt.Fprintln(w, "# TYPE bpserved_cache_inflight gauge")
	fmt.Fprintf(w, "bpserved_cache_inflight %d\n", cs.Inflight)

	fmt.Fprintln(w, "# HELP bpserved_reprice_hits_total Activity-vector lookups answered from memory (every cache entry is one, so this equals bpserved_cache_hits_total).")
	fmt.Fprintln(w, "# TYPE bpserved_reprice_hits_total counter")
	fmt.Fprintf(w, "bpserved_reprice_hits_total %d\n", cs.Hits)
	fmt.Fprintln(w, "# HELP bpserved_reprice_misses_total Activity-vector lookups that went to the store or a base simulation (equals bpserved_cache_misses_total).")
	fmt.Fprintln(w, "# TYPE bpserved_reprice_misses_total counter")
	fmt.Fprintf(w, "bpserved_reprice_misses_total %d\n", cs.Misses)
	fmt.Fprintln(w, "# HELP bpserved_reprice_folds_total Runs produced by repricing a cached activity vector instead of simulating.")
	fmt.Fprintln(w, "# TYPE bpserved_reprice_folds_total counter")
	fmt.Fprintf(w, "bpserved_reprice_folds_total %d\n", cs.RepriceFolds)
	fmt.Fprintln(w, "# HELP bpserved_cache_activity_entries Activity vectors resident in the run cache (equals bpserved_cache_entries).")
	fmt.Fprintln(w, "# TYPE bpserved_cache_activity_entries gauge")
	fmt.Fprintf(w, "bpserved_cache_activity_entries %d\n", cs.Entries)

	fmt.Fprintln(w, "# HELP bpserved_store_hits_total Memory misses answered by the persistent result store.")
	fmt.Fprintln(w, "# TYPE bpserved_store_hits_total counter")
	fmt.Fprintf(w, "bpserved_store_hits_total %d\n", cs.StoreHits)
	fmt.Fprintln(w, "# HELP bpserved_store_misses_total Memory misses that fell through the store to a simulation.")
	fmt.Fprintln(w, "# TYPE bpserved_store_misses_total counter")
	fmt.Fprintf(w, "bpserved_store_misses_total %d\n", cs.StoreMisses)
	if ss != nil {
		fmt.Fprintln(w, "# HELP bpserved_store_entries Result entries resident on disk.")
		fmt.Fprintln(w, "# TYPE bpserved_store_entries gauge")
		fmt.Fprintf(w, "bpserved_store_entries %d\n", ss.Entries)
		fmt.Fprintln(w, "# HELP bpserved_store_bytes Approximate bytes of on-disk result entries.")
		fmt.Fprintln(w, "# TYPE bpserved_store_bytes gauge")
		fmt.Fprintf(w, "bpserved_store_bytes %d\n", ss.Bytes)
		fmt.Fprintln(w, "# HELP bpserved_store_puts_total Result entries written to disk.")
		fmt.Fprintln(w, "# TYPE bpserved_store_puts_total counter")
		fmt.Fprintf(w, "bpserved_store_puts_total %d\n", ss.Puts)
		fmt.Fprintln(w, "# HELP bpserved_store_evictions_total Entries deleted by the store's size-bounded GC.")
		fmt.Fprintln(w, "# TYPE bpserved_store_evictions_total counter")
		fmt.Fprintf(w, "bpserved_store_evictions_total %d\n", ss.Evicted)
		fmt.Fprintln(w, "# HELP bpserved_store_corrupt_total Unreadable entries dropped on load.")
		fmt.Fprintln(w, "# TYPE bpserved_store_corrupt_total counter")
		fmt.Fprintf(w, "bpserved_store_corrupt_total %d\n", ss.Corrupt)
		fmt.Fprintln(w, "# HELP bpserved_store_activity_entries Activity-vector entries resident on disk.")
		fmt.Fprintln(w, "# TYPE bpserved_store_activity_entries gauge")
		fmt.Fprintf(w, "bpserved_store_activity_entries %d\n", ss.ActivityEntries)
	}

	fmt.Fprintln(w, "# HELP bpserved_sim_busy_workers Simulations executing right now.")
	fmt.Fprintln(w, "# TYPE bpserved_sim_busy_workers gauge")
	fmt.Fprintf(w, "bpserved_sim_busy_workers %d\n", m.simBusy.Load())
	fmt.Fprintln(w, "# HELP bpserved_sim_capacity Maximum concurrent simulations (gate size).")
	fmt.Fprintln(w, "# TYPE bpserved_sim_capacity gauge")
	fmt.Fprintf(w, "bpserved_sim_capacity %d\n", capacity)
	fmt.Fprintln(w, "# HELP bpserved_simulations_total Completed simulations.")
	fmt.Fprintln(w, "# TYPE bpserved_simulations_total counter")
	fmt.Fprintf(w, "bpserved_simulations_total %d\n", m.simRuns.Load())
	fmt.Fprintln(w, "# HELP bpserved_simulation_errors_total Simulations ending in error (cancellations included).")
	fmt.Fprintln(w, "# TYPE bpserved_simulation_errors_total counter")
	fmt.Fprintf(w, "bpserved_simulation_errors_total %d\n", m.simErrors.Load())
	fmt.Fprintln(w, "# HELP bpserved_simulated_instructions_total Committed instructions across completed simulations; rate() gives instructions/sec.")
	fmt.Fprintln(w, "# TYPE bpserved_simulated_instructions_total counter")
	fmt.Fprintf(w, "bpserved_simulated_instructions_total %d\n", m.simInsts.Load())
}
