package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bpredpower/internal/bpred"
	"bpredpower/internal/power"
	"bpredpower/internal/resultstore"
)

// quickSweepBody is a 2-predictor × 1-benchmark grid small enough for e2e
// tests; with the banked default it is exactly two grid points.
func quickSweepBody() string {
	return `{"predictors":["Bim_4k","Gsh_1_16k_12"],"workload":"164.gzip","warmup_insts":2000,"measure_insts":4000}`
}

func postSweep(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
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

// parseSweep splits an NDJSON sweep body into its header, point lines, and
// trailer, validating the framing along the way.
func parseSweep(t *testing.T, data []byte) (hdr sweepHeader, points []SweepPoint, trailer []byte) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("sweep body has %d lines, want at least header + trailer:\n%s", len(lines), data)
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatalf("header line: %v\n%s", err, lines[0])
	}
	for _, ln := range lines[1 : len(lines)-1] {
		var p SweepPoint
		if err := json.Unmarshal(ln, &p); err != nil {
			t.Fatalf("point line: %v\n%s", err, ln)
		}
		points = append(points, p)
	}
	return hdr, points, lines[len(lines)-1]
}

// TestSweepHappyPath drives one small sweep end to end: framing, grid order,
// per-point results, and the mean in the trailer.
func TestSweepHappyPath(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postSweep(t, ts, quickSweepBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	hdr, points, trailer := parseSweep(t, data)
	if !strings.HasPrefix(hdr.ID, "sw-") || hdr.Points != 2 || hdr.Workload != "164.gzip" {
		t.Errorf("header wrong: %+v", hdr)
	}
	if resp.Header.Get("X-Sweep-ID") != hdr.ID {
		t.Errorf("X-Sweep-ID %q != header id %q", resp.Header.Get("X-Sweep-ID"), hdr.ID)
	}
	if len(points) != 2 {
		t.Fatalf("got %d point lines, want 2", len(points))
	}
	// Grid order is predictor-major: Bim_4k then Gsh_1_16k_12.
	for i, wantPred := range []string{"Bim_4k", "Gsh_1_16k_12"} {
		p := points[i]
		if p.Point != i || p.Predictor != wantPred || p.Banked {
			t.Errorf("point %d coordinates wrong: %+v", i, p)
		}
		if p.Benchmark != "164.gzip" || p.Committed == 0 || p.IPC <= 0 || p.TotalPowerW <= 0 {
			t.Errorf("point %d looks empty: %+v", i, p)
		}
	}
	var sum sweepSummary
	if err := json.Unmarshal(trailer, &sum); err != nil {
		t.Fatalf("trailer: %v\n%s", err, trailer)
	}
	if !sum.Done || sum.Points != 2 {
		t.Errorf("summary wrong: %+v", sum)
	}
	wantMean := (points[0].IPC + points[1].IPC) / 2
	if math.Abs(sum.Mean.IPC-wantMean) > 1e-12 {
		t.Errorf("summary mean IPC = %g, want %g", sum.Mean.IPC, wantMean)
	}
}

// TestSweepDeterminismMatrix is the tentpole property test: the same sweep
// request must yield byte-identical bodies at any worker count and store
// state — cold, warm (restart over a populated directory), and shared across
// two server replicas.
func TestSweepDeterminismMatrix(t *testing.T) {
	body := `{"predictors":["Bim_4k","Gsh_1_16k_12"],"workload":"Subset7","banked":[false,true],"warmup_insts":2000,"measure_insts":4000}`

	type variant struct {
		name     string
		parallel int
		dir      string // store directory ("" = memory-only)
	}
	sharedDir := t.TempDir()
	variants := []variant{
		{"serial-no-store", 1, ""},
		{"parallel-no-store", 4, ""},
		{"serial-cold-store", 1, t.TempDir()},
		{"parallel-cold-store", 4, sharedDir},
		{"parallel-warm-store", 4, sharedDir}, // restart-resume: answers from disk
	}

	var baseline []byte
	for _, v := range variants {
		cfg := testConfig()
		cfg.Parallel = v.parallel
		if v.dir != "" {
			store, err := resultstore.Open(v.dir, resultstore.Config{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Store = store
		}
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())
		resp, data := postSweep(t, ts, body)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", v.name, resp.StatusCode, data)
		}
		if baseline == nil {
			baseline = data
			continue
		}
		if !bytes.Equal(data, baseline) {
			t.Errorf("%s body differs from baseline:\n--- baseline ---\n%s\n--- %s ---\n%s",
				v.name, baseline, v.name, data)
		}
	}

	// The warm-store pass must really have come from disk: a fresh server
	// over the shared directory serves the whole grid without simulating.
	store, err := resultstore.Open(sharedDir, resultstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Store = store
	srv := New(cfg)
	srv.Cache.Hooks.BeforeRun = func(context.Context) { t.Error("warm store still simulated") }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, data := postSweep(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm replay: status %d", resp.StatusCode)
	}
	if !bytes.Equal(data, baseline) {
		t.Error("warm-store replay body differs from baseline")
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Errorf("warm store recorded no hits: %+v", st)
	}
}

// TestSweepReplay checks that a repeated POST of a finished grid returns the
// original bytes without running a single new simulation: every point is a
// RunCache hit.
func TestSweepReplay(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, first := postSweep(t, ts, quickSweepBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, first)
	}
	sims := srv.Cache.Stats().Misses
	resp, second := postSweep(t, ts, quickSweepBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeated POST: status %d", resp.StatusCode)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("repeated POST body differs:\n%s\nvs\n%s", first, second)
	}
	if after := srv.Cache.Stats().Misses; after != sims {
		t.Errorf("repeated POST started %d new simulations", after-sims)
	}
}

// TestSweepConcurrentIdenticalShare posts one grid twice at once while the
// first simulation is held: the RunCache singleflight shares every
// simulation between the two requests, so both bodies are byte-identical and
// the cache misses exactly once per distinct execution key of the grid.
func TestSweepConcurrentIdenticalShare(t *testing.T) {
	srv := New(testConfig())
	release := make(chan struct{})
	var once sync.Once
	srv.Cache.Hooks.BeforeRun = func(context.Context) {
		once.Do(func() { <-release }) // hold only the first simulation
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 2 predictors × 2 banked × 2 gating styles on one benchmark: 8 points,
	// but banking and gating only price, so 2 execution keys.
	const body = `{"predictors":["Bim_4k","Gsh_1_16k_12"],"workload":"164.gzip","banked":[false,true],` +
		`"clock_gating":["cc0","cc3"],"warmup_insts":2000,"measure_insts":4000}`
	const execKeys = 2
	misses := srv.Cache.Stats().Misses

	type result struct {
		data []byte
		err  error
	}
	results := make(chan result, 2)
	for range 2 {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
			if err != nil {
				results <- result{nil, err}
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			results <- result{data, err}
		}()
	}
	// Release the held simulation only once both requests are being served.
	deadline := time.Now().Add(10 * time.Second)
	for srv.metrics.inflight.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 sweeps reached the server", srv.metrics.inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatalf("stream errors: %v, %v", a.err, b.err)
	}
	if !bytes.Equal(a.data, b.data) {
		t.Errorf("concurrent identical sweeps differ:\n%s\nvs\n%s", a.data, b.data)
	}
	if _, points, _ := parseSweep(t, a.data); len(points) != 8 {
		t.Errorf("got %d points, want 8", len(points))
	}
	if got := srv.Cache.Stats().Misses - misses; got != execKeys {
		t.Errorf("two concurrent identical sweeps missed the cache %d times, want %d (one per execution key)", got, execKeys)
	}
}

// waitIdle waits until the server is serving no request and its cache is
// computing nothing: no handler, worker pool or simulation outlives the
// request that started it.
func waitIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.metrics.inflight.Load() != 0 || srv.Cache.Stats().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests and %d cache computes still in flight", srv.metrics.inflight.Load(), srv.Cache.Stats().Inflight)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepClientDisconnectCancels: when the client of an in-flight sweep
// goes away, the request context is canceled, the running simulation
// observes it, and the handler, its worker pool and the cache's in-flight
// computes all wind down instead of burning through the rest of the grid.
func TestSweepClientDisconnectCancels(t *testing.T) {
	srv := New(testConfig())
	started := make(chan struct{})
	observed := make(chan error, 1)
	var once sync.Once
	srv.Cache.Hooks.BeforeRun = func(ctx context.Context) {
		once.Do(func() {
			close(started)
			<-ctx.Done()
			observed <- ctx.Err()
		})
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweeps",
		strings.NewReader(quickSweepBody()))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errCh <- err
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep never started simulating")
	}
	cancel() // the only client disconnects

	select {
	case err := <-observed:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("simulation context observed %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("simulation context was never canceled after client disconnect")
	}
	<-errCh
	waitIdle(t, srv)
}

// TestSweepDeadlinePartialResults pins the deadline semantics: completed
// points are already on the wire when the deadline fires, and the failure
// trailer reports exactly how many.
func TestSweepDeadlinePartialResults(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Pre-warm point 0 (Bim_4k) through /v1/simulate — identical cache key —
	// then hold every subsequent simulation past the sweep's deadline.
	if resp, data := postSimulate(t, ts, quickSimBody()); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d, body %s", resp.StatusCode, data)
	}
	srv.Cache.Hooks.BeforeRun = func(ctx context.Context) { <-ctx.Done() }

	resp, data := postSweep(t, ts,
		`{"predictors":["Bim_4k","Gsh_1_16k_12"],"workload":"164.gzip","warmup_insts":2000,"measure_insts":4000,"timeout_ms":300}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	hdr, points, trailer := parseSweep(t, data)
	if hdr.Points != 2 {
		t.Fatalf("header: %+v", hdr)
	}
	if len(points) != 1 || points[0].Predictor != "Bim_4k" {
		t.Fatalf("want exactly the pre-warmed point on the wire, got %+v", points)
	}
	var fail sweepFailure
	if err := json.Unmarshal(trailer, &fail); err != nil {
		t.Fatalf("trailer: %v\n%s", err, trailer)
	}
	if fail.Error != "sweep deadline exceeded" || fail.Completed != 1 {
		t.Errorf("failure trailer = %+v, want deadline with 1 completed", fail)
	}
}

// TestSweepBadRequests sweeps the 400 surface of the grid decoder and the
// handler's resolution steps.
func TestSweepBadRequests(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Build a valid oversized grid: every registered predictor × both banked
	// values × every benchmark blows well past the point cap.
	all := bpred.AllConfigs()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = fmt.Sprintf("%q", s.Name)
	}
	oversized := fmt.Sprintf(`{"predictors":[%s],"workload":"All","banked":[false,true]}`,
		strings.Join(names, ","))

	for _, tc := range []struct{ name, body, wantSub string }{
		{"bad json", `{"predictors":`, "decoding"},
		{"no predictors", `{"workload":"164.gzip"}`, "at least one"},
		{"empty predictor name", `{"predictors":[""],"workload":"164.gzip"}`, "non-empty"},
		{"duplicate predictor", `{"predictors":["Bim_4k","Bim_4k"],"workload":"164.gzip"}`, "duplicate"},
		{"unknown predictor", `{"predictors":["NoSuchPred"],"workload":"164.gzip"}`, "NoSuchPred"},
		{"no workload", `{"predictors":["Bim_4k"]}`, "workload"},
		{"unknown workload", `{"predictors":["Bim_4k"],"workload":"999.nope"}`, "999.nope"},
		{"degenerate banked", `{"predictors":["Bim_4k"],"workload":"164.gzip","banked":[true,true]}`, "banked"},
		{"banked overlong", `{"predictors":["Bim_4k"],"workload":"164.gzip","banked":[true,false,true]}`, "banked"},
		{"unknown gating style", `{"predictors":["Bim_4k"],"workload":"164.gzip","clock_gating":["cc9"]}`, "cc9"},
		{"duplicate gating style", `{"predictors":["Bim_4k"],"workload":"164.gzip","clock_gating":["cc0","cc0"]}`, "clock-gating"},
		{"negative window", `{"predictors":["Bim_4k"],"workload":"164.gzip","warmup_insts":-5}`, "warmup_insts"},
		{"fractional window", `{"predictors":["Bim_4k"],"workload":"164.gzip","measure_insts":100.5}`, "integer"},
		{"oversized window", `{"predictors":["Bim_4k"],"workload":"164.gzip","measure_insts":99000000}`, "measure_insts"},
		{"huge timeout", `{"predictors":["Bim_4k"],"workload":"164.gzip","timeout_ms":1e12}`, "timeout_ms"},
		{"unknown fidelity", `{"predictors":["Bim_4k"],"workload":"164.gzip","fidelity":"exact"}`, "fidelity"},
		{"grid too large", oversized, "cap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postSweep(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, data)
			}
			if !strings.Contains(string(data), tc.wantSub) {
				t.Errorf("error body %s should mention %q", data, tc.wantSub)
			}
		})
	}
}

// TestSweepIDStability: the sweep id is a pure function of the resolved grid —
// stable across servers, and different for different grids.
func TestSweepIDStability(t *testing.T) {
	idOf := func(body string) string {
		srv := New(testConfig())
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, data := postSweep(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, body %s", resp.StatusCode, data)
		}
		hdr, _, _ := parseSweep(t, data)
		return hdr.ID
	}
	a := idOf(quickSweepBody())
	b := idOf(quickSweepBody())
	if a != b {
		t.Errorf("identical grids got different ids across servers: %s vs %s", a, b)
	}
	c := idOf(`{"predictors":["Bim_4k","Gsh_1_16k_12"],"workload":"164.gzip","warmup_insts":2000,"measure_insts":4100}`)
	if a == c {
		t.Error("different windows must produce a different sweep id")
	}
}

// TestStoreMetricsMove extends the metrics-movement pattern to the store
// layer: server A populates a shared directory; a fresh server B over the
// same directory answers from it — store hits move, simulations don't.
func TestStoreMetricsMove(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Server, *httptest.Server) {
		store, err := resultstore.Open(dir, resultstore.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.Store = store
		srv := New(cfg)
		return srv, httptest.NewServer(srv.Handler())
	}
	metric := func(ts *httptest.Server, name string) string {
		t.Helper()
		_, data := get(t, ts, "/metrics")
		for _, ln := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(ln, name+" ") {
				return strings.TrimPrefix(ln, name+" ")
			}
		}
		return ""
	}

	srvA, tsA := boot()
	defer tsA.Close()
	if resp, data := postSimulate(t, tsA, quickSimBody()); resp.StatusCode != http.StatusOK {
		t.Fatalf("server A simulate: status %d, body %s", resp.StatusCode, data)
	}
	if got := metric(tsA, "bpserved_store_misses_total"); got != "1" {
		t.Errorf("server A store misses = %s, want 1", got)
	}
	if got := metric(tsA, "bpserved_store_puts_total"); got != "1" {
		t.Errorf("server A store puts = %s, want 1", got)
	}
	_ = srvA

	srvB, tsB := boot()
	defer tsB.Close()
	resp, data := postSimulate(t, tsB, quickSimBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server B simulate: status %d, body %s", resp.StatusCode, data)
	}
	if got := metric(tsB, "bpserved_store_hits_total"); got != "1" {
		t.Errorf("server B store hits = %s, want 1", got)
	}
	if got := metric(tsB, "bpserved_simulations_total"); got != "0" {
		t.Errorf("server B ran %s simulations; the store should have answered", got)
	}
	if got := metric(tsB, "bpserved_store_entries"); got != "1" {
		t.Errorf("server B store entries = %s, want 1", got)
	}
	if st := srvB.Cache.Stats(); st.StoreHits != 1 {
		t.Errorf("server B cache stats = %+v, want 1 store hit", st)
	}
}

// TestSweepClockGatingAxisReprices is the service-level acceptance test for
// activity/price decoupling: a sweep spanning all four gating styles (and
// both banking arrangements) of one predictor × benchmark performs exactly
// one full simulation, reprices the other seven points from its cached
// activity vector, and reports the repricing through /metrics.
func TestSweepClockGatingAxisReprices(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"predictors":["Hybrid_1"],"workload":"164.gzip","banked":[false,true],` +
		`"clock_gating":["cc0","cc1","cc2","cc3"],"warmup_insts":2000,"measure_insts":4000}`
	resp, data := postSweep(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	hdr, points, _ := parseSweep(t, data)
	if hdr.Points != 8 || len(points) != 8 {
		t.Fatalf("grid has %d/%d points, want 8", hdr.Points, len(points))
	}
	// Grid order is banked-major then gating within one predictor; every
	// point carries its style and a fully priced power figure.
	wantStyles := []string{"cc0", "cc1", "cc2", "cc3"}
	for i, p := range points {
		if p.Banked != (i >= 4) || p.ClockGating != wantStyles[i%4] {
			t.Errorf("point %d coordinates wrong: %+v", i, p)
		}
		if p.TotalPowerW <= 0 || p.Committed == 0 {
			t.Errorf("point %d looks empty: %+v", i, p)
		}
	}
	// The gating styles must actually price differently: cc0 (no gating)
	// burns strictly more power than cc3 (the paper's configuration).
	if points[0].TotalPowerW <= points[3].TotalPowerW {
		t.Errorf("cc0 power %g should exceed cc3 power %g", points[0].TotalPowerW, points[3].TotalPowerW)
	}
	// All eight points differ only in the pricing key, so execution-side
	// numbers are shared while the repriced power figures are not.
	for _, p := range points[1:] {
		if p.IPC != points[0].IPC || p.Committed != points[0].Committed {
			t.Errorf("execution stats differ across pricing variants: %+v vs %+v", p, points[0])
		}
	}

	_, mdata := get(t, ts, "/metrics")
	metrics := string(mdata)
	for _, want := range []string{
		"bpserved_simulations_total 1",
		"bpserved_reprice_misses_total 1",
		"bpserved_reprice_folds_total 7",
		"bpserved_cache_activity_entries 1",
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics missing %q after gating-axis sweep", want)
		}
	}
	if cs := srv.Cache.Stats(); cs.RepriceFolds != 7 || cs.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 reprice miss and 7 folds", cs)
	}
}

// TestSweepHonorsWindows pins the windows a sweep runs at: with explicit
// non-default warmup/measure counts, the header must advertise them and
// every point must equal what /v1/simulate (on a separate server, so no
// cache is shared) returns for the same predictor, banking, benchmark and
// windows.
func TestSweepHonorsWindows(t *testing.T) {
	const warmup, measure = 3000, 5000
	sweepTS := httptest.NewServer(New(testConfig()).Handler())
	defer sweepTS.Close()
	simTS := httptest.NewServer(New(testConfig()).Handler())
	defer simTS.Close()

	body := fmt.Sprintf(`{"predictors":["Bim_4k","Hybrid_1"],"workload":"164.gzip","banked":[false,true],`+
		`"warmup_insts":%d,"measure_insts":%d}`, warmup, measure)
	resp, data := postSweep(t, sweepTS, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	hdr, points, _ := parseSweep(t, data)
	if hdr.WarmupInsts != warmup || hdr.MeasureInsts != measure {
		t.Errorf("header advertises windows %d/%d, want %d/%d", hdr.WarmupInsts, hdr.MeasureInsts, warmup, measure)
	}
	if len(points) != 4 {
		t.Fatalf("got %d point lines, want 4", len(points))
	}
	for _, p := range points {
		simBody := fmt.Sprintf(`{"predictor":%q,"workload":"164.gzip","banked":%t,"warmup_insts":%d,"measure_insts":%d}`,
			p.Predictor, p.Banked, warmup, measure)
		resp, sdata := postSimulate(t, simTS, simBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate status %d, body %s", resp.StatusCode, sdata)
		}
		var sr SimulateResponse
		if err := json.Unmarshal(sdata, &sr); err != nil {
			t.Fatalf("decoding simulate response: %v", err)
		}
		if len(sr.Runs) != 1 {
			t.Fatalf("simulate returned %d runs, want 1", len(sr.Runs))
		}
		if p.RunResult != sr.Runs[0] {
			t.Errorf("point %d (%s, banked=%t) differs from /v1/simulate at the same windows\n got %+v\nwant %+v",
				p.Point, p.Predictor, p.Banked, p.RunResult, sr.Runs[0])
		}
	}
}

// FuzzSweepRequestDecode hardens the grid decoder: no input may panic it,
// and anything it accepts must satisfy the structural invariants the handler
// depends on.
func FuzzSweepRequestDecode(f *testing.F) {
	f.Add([]byte(quickSweepBody()))
	f.Add([]byte(`{"predictors":["Hybrid_1"],"workload":"Subset7","banked":[false,true],"fidelity":"full"}`))
	f.Add([]byte(`{"predictors":["A","B"],"workload":"w","timeout_ms":1000}`))
	f.Add([]byte(`{"predictors":[],"workload":""}`))
	f.Add([]byte(`{"predictors":["x"],"workload":"w","warmup_insts":-1}`))
	f.Add([]byte(`{"predictors":["x"],"workload":"w","measure_insts":1e300}`))
	f.Add([]byte(`{"predictors":["x"],"workload":"w","measure_insts":0.5}`))
	f.Add([]byte(`{"banked":[true,true,true]}`))
	f.Add([]byte(`{"predictors":["Hybrid_1"],"workload":"164.gzip","clock_gating":["cc0","cc1","cc2","cc3"]}`))
	f.Add([]byte(`{"predictors":["x"],"workload":"w","clock_gating":["cc9"]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeSweepRequest(data)
		if err != nil {
			return
		}
		if len(req.Predictors) == 0 || len(req.Predictors) > maxSweepPredictors {
			t.Fatalf("accepted %d predictors", len(req.Predictors))
		}
		seen := map[string]bool{}
		for _, p := range req.Predictors {
			if p == "" || seen[p] {
				t.Fatalf("accepted empty/duplicate predictor in %q", req.Predictors)
			}
			seen[p] = true
		}
		if req.Workload == "" {
			t.Fatal("accepted empty workload")
		}
		if len(req.Banked) == 0 || len(req.Banked) > 2 ||
			(len(req.Banked) == 2 && req.Banked[0] == req.Banked[1]) {
			t.Fatalf("accepted degenerate banked axis %v", req.Banked)
		}
		if len(req.ClockGating) == 0 {
			t.Fatal("accepted empty clock-gating axis")
		}
		styles := map[string]bool{}
		for _, name := range req.ClockGating {
			if _, err := power.ParseGatingStyle(name); err != nil {
				t.Fatalf("accepted unparsable gating style %q", name)
			}
			if styles[name] {
				t.Fatalf("accepted duplicate gating style in %v", req.ClockGating)
			}
			styles[name] = true
		}
		if req.WarmupInsts > maxWindowInsts || req.MeasureInsts > maxWindowInsts {
			t.Fatalf("accepted oversized window %d/%d", req.WarmupInsts, req.MeasureInsts)
		}
		if req.TimeoutMS < 0 || req.TimeoutMS > 24*60*60*1000 {
			t.Fatalf("accepted timeout %d", req.TimeoutMS)
		}
	})
}
