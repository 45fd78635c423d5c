package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bpredpower/internal/experiments"
)

// testConfig returns a small, fast server configuration with logs discarded.
func testConfig() Config {
	return Config{
		Parallel:       2,
		CacheEntries:   64,
		MaxConcurrent:  4,
		RequestTimeout: 30 * time.Second,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// quickSimBody is a simulate request small enough for an e2e test: one
// benchmark, explicit tiny windows so the response is pinned by the request.
func quickSimBody() string {
	return `{"predictor":"Bim_4k","workload":"164.gzip","fidelity":"quick","warmup_insts":2000,"measure_insts":4000}`
}

func postSimulate(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSimulateHappyPath drives one quick simulation end to end and checks
// the response carries real simulation results.
func TestSimulateHappyPath(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postSimulate(t, ts, quickSimBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Error("response is missing X-Request-ID")
	}
	var sr SimulateResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if sr.Predictor != "Bim_4k" || sr.Fidelity != "quick" {
		t.Errorf("echoed request fields wrong: %+v", sr)
	}
	if sr.WarmupInsts != 2000 || sr.MeasureInsts != 4000 {
		t.Errorf("window override not honored: warmup %d, measure %d", sr.WarmupInsts, sr.MeasureInsts)
	}
	if len(sr.Runs) != 1 {
		t.Fatalf("expected 1 run, got %d", len(sr.Runs))
	}
	r := sr.Runs[0]
	if r.Benchmark != "164.gzip" || r.Committed == 0 || r.IPC <= 0 || r.TotalPowerW <= 0 {
		t.Errorf("run looks empty: %+v", r)
	}
	if sr.Mean.Committed != r.Committed {
		t.Errorf("mean of one run should echo it: %+v vs %+v", sr.Mean, r)
	}
}

// TestSimulateUnknownPredictor checks the 400 carries the registry's
// name-listing error so a client can self-correct.
func TestSimulateUnknownPredictor(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postSimulate(t, ts, `{"predictor":"NoSuchPred","workload":"164.gzip"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, data)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body is not the JSON error shape: %s", data)
	}
	if !strings.Contains(e.Error, "NoSuchPred") || !strings.Contains(e.Error, "Hybrid_1") {
		t.Errorf("error should name the bad predictor and list registered ones, got: %s", e.Error)
	}
}

// TestSimulateBadRequests sweeps the 400 surface: bad JSON, unknown
// workload, unknown fidelity, oversized window, and a timeout_ms that is
// negative, overflows a time.Duration, or exceeds the one-day cap.
func TestSimulateBadRequests(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct{ name, body string }{
		{"bad json", `{"predictor":`},
		{"unknown workload", `{"predictor":"Bim_4k","workload":"999.nope"}`},
		{"unknown fidelity", `{"predictor":"Bim_4k","workload":"164.gzip","fidelity":"exact"}`},
		{"oversized window", `{"predictor":"Bim_4k","workload":"164.gzip","measure_insts":99000000}`},
		{"negative timeout", `{"predictor":"Bim_4k","workload":"164.gzip","timeout_ms":-1}`},
		{"overflowing timeout", `{"predictor":"Bim_4k","workload":"164.gzip","timeout_ms":9223372036854775807}`},
		{"timeout over a day", `{"predictor":"Bim_4k","workload":"164.gzip","timeout_ms":86400001}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postSimulate(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400; body %s", resp.StatusCode, data)
			}
		})
	}
}

// TestSimulateDeadline checks a request-level timeout turns into a 504 and
// that the simulation context really is canceled: the BeforeRun hook holds
// the simulation until the deadline fires and then observes the context in
// the DeadlineExceeded state.
func TestSimulateDeadline(t *testing.T) {
	srv := New(testConfig())
	var mu sync.Mutex
	var observed error
	hold := false
	base := srv.Cache.Hooks
	srv.Cache.Hooks.BeforeRun = func(ctx context.Context) {
		base.BeforeRun(ctx)
		mu.Lock()
		holding := hold
		mu.Unlock()
		if !holding {
			return
		}
		<-ctx.Done() // hold the run until the request deadline fires
		mu.Lock()
		observed = ctx.Err()
		mu.Unlock()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the program image with an unheld request so the deadline request
	// below spends its budget in the simulation, not in program generation.
	if resp, data := postSimulate(t, ts, quickSimBody()); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup request: status %d, body %s", resp.StatusCode, data)
	}
	entriesBefore := srv.Cache.Stats().Entries
	mu.Lock()
	hold = true
	mu.Unlock()

	// Distinct window => distinct cache key: this request must simulate, and
	// the hook holds it past its 150 ms deadline.
	resp, data := postSimulate(t, ts,
		`{"predictor":"Bim_4k","workload":"164.gzip","warmup_insts":2000,"measure_insts":4100,"timeout_ms":150}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "deadline") {
		t.Errorf("504 body should mention the deadline, got: %s", data)
	}
	mu.Lock()
	defer mu.Unlock()
	if !errors.Is(observed, context.DeadlineExceeded) {
		t.Errorf("harness context observed %v, want DeadlineExceeded", observed)
	}
	// The canceled compute must not have been cached.
	if st := srv.Cache.Stats(); st.Entries != entriesBefore {
		t.Errorf("canceled simulation changed cache entries: %d -> %d", entriesBefore, st.Entries)
	}
}

// TestClientDisconnectCancels checks that a client going away mid-request
// cancels the simulation context — the serving layer's core promise that
// abandoned work does not keep burning workers.
func TestClientDisconnectCancels(t *testing.T) {
	srv := New(testConfig())
	started := make(chan struct{})
	done := make(chan error, 1)
	base := srv.Cache.Hooks
	srv.Cache.Hooks.BeforeRun = func(ctx context.Context) {
		base.BeforeRun(ctx)
		close(started)
		<-ctx.Done()
		done <- ctx.Err()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate",
		strings.NewReader(quickSimBody()))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("simulation never started")
	}
	cancel() // client disconnects

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("simulation context observed %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("simulation context was never canceled after client disconnect")
	}
	if err := <-errCh; err == nil {
		t.Error("client call should have failed after cancel")
	}
}

// TestSingleflightAcrossRequests fires concurrent identical requests at a
// cold cache and checks exactly one simulation ran — the others waited on
// the leader — and every response is byte-identical.
func TestSingleflightAcrossRequests(t *testing.T) {
	const clients = 6
	srv := New(testConfig())
	var nComputes int64
	var mu sync.Mutex
	base := srv.Cache.Hooks
	srv.Cache.Hooks.AfterRun = func(r experiments.Run, err error) {
		base.AfterRun(r, err)
		mu.Lock()
		nComputes++
		mu.Unlock()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := make([][]byte, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(quickSimBody()))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	mu.Lock()
	n := nComputes
	mu.Unlock()
	if n != 1 {
		t.Errorf("%d identical requests ran %d simulations, want 1 (singleflight)", clients, n)
	}
	if st := srv.Cache.Stats(); st.Misses != 1 {
		t.Errorf("cache recorded %d misses, want 1", st.Misses)
	}
}

// TestParallelDeterminism runs the same multi-benchmark request on a
// 1-worker and a 4-worker server and requires byte-identical bodies — the
// service inherits the CLI's determinism contract.
func TestParallelDeterminism(t *testing.T) {
	body := `{"predictor":"Gsh_1_16k_12","workload":"Subset7","warmup_insts":2000,"measure_insts":4000}`
	render := func(parallel int) []byte {
		cfg := testConfig()
		cfg.Parallel = parallel
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, data := postSimulate(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("parallel=%d: status %d, body %s", parallel, resp.StatusCode, data)
		}
		return data
	}
	serial := render(1)
	par := render(4)
	if !bytes.Equal(serial, par) {
		t.Errorf("responses differ across worker counts:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", serial, par)
	}
}

// TestServiceGoldens pins the bytes of GET /v1/predictors and of one
// POST /v1/simulate against the goldens the verify.sh service smoke diffs,
// at one and at four workers.
func TestServiceGoldens(t *testing.T) {
	const simBody = `{"predictor":"Hybrid_1","workload":"164.gzip","fidelity":"quick","warmup_insts":4000,"measure_insts":8000}`
	wantPreds, err := os.ReadFile("../../cmd/bpserved/testdata/predictors.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantSim, err := os.ReadFile("../../cmd/bpserved/testdata/simulate.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 4} {
		cfg := testConfig()
		cfg.Parallel = parallel
		ts := httptest.NewServer(New(cfg).Handler())
		if resp, data := get(t, ts, "/v1/predictors"); resp.StatusCode != http.StatusOK || !bytes.Equal(data, wantPreds) {
			t.Errorf("parallel=%d: /v1/predictors (status %d) differs from predictors.golden:\n%s", parallel, resp.StatusCode, data)
		}
		if resp, data := postSimulate(t, ts, simBody); resp.StatusCode != http.StatusOK || !bytes.Equal(data, wantSim) {
			t.Errorf("parallel=%d: /v1/simulate (status %d) differs from simulate.golden:\n%s", parallel, resp.StatusCode, data)
		}
		ts.Close()
	}
}

// TestPredictorsAndWorkloads checks the discovery endpoints list the
// registry contents.
func TestPredictorsAndWorkloads(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := get(t, ts, "/v1/predictors")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predictors: status %d", resp.StatusCode)
	}
	var preds []PredictorInfo
	if err := json.Unmarshal(data, &preds); err != nil {
		t.Fatal(err)
	}
	byName := map[string]PredictorInfo{}
	for _, p := range preds {
		byName[p.Name] = p
	}
	if p, ok := byName["Hybrid_1"]; !ok || p.Class != "paper" || p.KBits == 0 {
		t.Errorf("Hybrid_1 listing wrong: %+v (present %v)", p, ok)
	}
	if p, ok := byName["Hybrid_0"]; !ok || p.Class != "special" {
		t.Errorf("Hybrid_0 should be class special, got %+v (present %v)", p, ok)
	}
	if p, ok := byName["TAGE_64k"]; !ok || p.Class != "extension" {
		t.Errorf("TAGE_64k should be class extension, got %+v (present %v)", p, ok)
	} else {
		tagged := 0
		for _, tb := range p.Tables {
			if tb.Kind == "tagged" {
				tagged++
				if tb.Tag == 0 || tb.Entries == 0 || tb.Width == 0 {
					t.Errorf("TAGE_64k tagged table %q missing geometry: %+v", tb.Name, tb)
				}
			}
		}
		if tagged == 0 {
			t.Errorf("TAGE_64k listing reports no tagged tables: %+v", p.Tables)
		}
	}
	if p, ok := byName["Perceptron_64k"]; !ok || len(p.Tables) != 1 || p.Tables[0].Kind != "weight" {
		t.Errorf("Perceptron_64k should expose one weight table, got %+v (present %v)", p, ok)
	}
	if p := byName["Bim_4k"]; len(p.Tables) != 1 || p.Tables[0].Kind != "pht" || p.Tables[0].Tag != 0 {
		t.Errorf("Bim_4k table geometry wrong: %+v", p.Tables)
	}

	resp, data = get(t, ts, "/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workloads: status %d", resp.StatusCode)
	}
	var wl WorkloadsResponse
	if err := json.Unmarshal(data, &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Benchmarks) == 0 || len(wl.Suites) != 4 {
		t.Errorf("workloads listing wrong: %d benchmarks, %d suites", len(wl.Benchmarks), len(wl.Suites))
	}
}

// TestFigureEndpoint checks a non-simulating figure renders and unknown
// figure numbers 404.
func TestFigureEndpoint(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := get(t, ts, "/v1/figures/3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure 3: status %d, body %s", resp.StatusCode, data)
	}
	var fr FigureResponse
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Figure != 3 || fr.Output == "" {
		t.Errorf("figure response wrong: figure %d, %d output bytes", fr.Figure, len(fr.Output))
	}

	resp, data = get(t, ts, "/v1/figures/4")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("figure 4: status %d, want 404; body %s", resp.StatusCode, data)
	}
	resp, _ = get(t, ts, "/v1/figures/abc")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("figure abc: status %d, want 400", resp.StatusCode)
	}
}

// TestMetricsMove checks the counters an operator watches actually move: a
// served simulate bumps the per-route request counter, the simulation
// counter, and the committed-instructions counter; a repeat hits the cache.
func TestMetricsMove(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	metric := func(name string) float64 {
		t.Helper()
		_, data := get(t, ts, "/metrics")
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
		m := re.FindSubmatch(data)
		if m == nil {
			return 0
		}
		v, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			t.Fatalf("metric %s: %v", name, err)
		}
		return v
	}

	if resp, data := postSimulate(t, ts, quickSimBody()); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d, body %s", resp.StatusCode, data)
	}
	if got := metric(`bpserved_requests_total{route="/v1/simulate",code="200"}`); got != 1 {
		t.Errorf("request counter = %g, want 1", got)
	}
	if got := metric("bpserved_simulations_total"); got != 1 {
		t.Errorf("simulations counter = %g, want 1", got)
	}
	if got := metric("bpserved_simulated_instructions_total"); got < 4000 {
		t.Errorf("instructions counter = %g, want >= the measured window", got)
	}
	if got := metric("bpserved_cache_entries"); got != 1 {
		t.Errorf("cache entries = %g, want 1", got)
	}

	// A repeat of the same request is a cache hit: requests move, sims don't.
	if resp, data := postSimulate(t, ts, quickSimBody()); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat simulate: status %d, body %s", resp.StatusCode, data)
	}
	if got := metric("bpserved_simulations_total"); got != 1 {
		t.Errorf("simulations counter moved on a cache hit: %g", got)
	}
	if got := metric("bpserved_cache_hits_total"); got < 1 {
		t.Errorf("cache hits = %g, want >= 1", got)
	}
	if got := metric(`bpserved_requests_total{route="/v1/simulate",code="200"}`); got != 2 {
		t.Errorf("request counter = %g, want 2", got)
	}

	// The inflight gauge is quiescent between requests, and the store-layer
	// counters render (at zero) even on a store-less server, so scrape
	// configs see a stable metric set.
	if got := metric("bpserved_cache_inflight"); got != 0 {
		t.Errorf("cache inflight = %g at rest, want 0", got)
	}
	_, data := get(t, ts, "/metrics")
	for _, name := range []string{"bpserved_store_hits_total 0", "bpserved_store_misses_total 0"} {
		if !strings.Contains(string(data), name) {
			t.Errorf("store-less /metrics is missing %q", name)
		}
	}
	if strings.Contains(string(data), "bpserved_store_entries") {
		t.Error("store occupancy gauges should not render without a store")
	}

	// A sweep moves its own route counter and streams through the same
	// instrumentation.
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"predictors":["Bim_4k"],"workload":"164.gzip","warmup_insts":2000,"measure_insts":4000}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := metric(`bpserved_requests_total{route="/v1/sweeps",code="200"}`); got != 1 {
		t.Errorf("sweep request counter = %g, want 1", got)
	}
}

// TestRequestIDStability checks an inbound X-Request-ID is echoed and a
// missing one is minted.
func TestRequestIDStability(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/predictors", nil)
	req.Header.Set("X-Request-ID", "caller-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chose-this" {
		t.Errorf("inbound request ID not honored: %q", got)
	}

	resp, _ = get(t, ts, "/v1/predictors")
	if got := resp.Header.Get("X-Request-ID"); !strings.HasPrefix(got, "bp-") {
		t.Errorf("minted request ID %q should have the bp- prefix", got)
	}
}

// TestHealthAndPprof smoke-checks the operational endpoints.
func TestHealthAndPprof(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || string(data) != "ok\n" {
		t.Errorf("healthz: status %d, body %q", resp.StatusCode, data)
	}
	resp, data = get(t, ts, "/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK || len(data) == 0 {
		t.Errorf("pprof cmdline: status %d, %d bytes", resp.StatusCode, len(data))
	}
}
