package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bpredpower/internal/resultstore"
	"bpredpower/internal/xrand"
)

// loadRequest is one planned request of the mixed load.
type loadRequest struct {
	path    string // "/v1/simulate" or "/v1/sweeps"
	body    string
	abandon bool // the client gives up once the server has the request
}

// planMixedLoad draws n requests from a small key pool with a fixed seed:
// about a quarter are two-predictor sweeps and about a tenth are abandoned.
// The pool is small on purpose, so abandoned and surviving requests keep
// colliding on the same cache entries and store keys. Seed 2
// gives 40 requests with 10 sweeps and 3 abandons, 2 of them sweeps.
func planMixedLoad(n int, seed uint64) []loadRequest {
	preds := []string{"Bim_4k", "GAs_1_32k_8", "Gsh_1_16k_12", "Hybrid_1"}
	benches := []string{"164.gzip", "176.gcc", "300.twolf"}
	rng := xrand.NewSplitMix(seed)
	plan := make([]loadRequest, n)
	for i := range plan {
		p := rng.Intn(len(preds))
		bench := benches[rng.Intn(len(benches))]
		if rng.Intn(4) == 0 {
			second := (p + 1 + rng.Intn(len(preds)-1)) % len(preds) // never p itself
			plan[i] = loadRequest{path: "/v1/sweeps", body: fmt.Sprintf(
				`{"predictors":[%q,%q],"workload":%q,"warmup_insts":2000,"measure_insts":4000}`, preds[p], preds[second], bench)}
		} else {
			plan[i] = loadRequest{path: "/v1/simulate", body: fmt.Sprintf(
				`{"predictor":%q,"workload":%q,"warmup_insts":2000,"measure_insts":4000}`, preds[p], bench)}
		}
		plan[i].abandon = rng.Intn(10) == 0
	}
	return plan
}

// sweepDone reports whether an NDJSON sweep body ends in the success
// trailer.
func sweepDone(body []byte) bool {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	var sum sweepSummary
	return json.Unmarshal(lines[len(lines)-1], &sum) == nil && sum.Done
}

// TestMixedLoadWithCancellations runs simulates, sweeps and mid-flight
// client abandons at the same time against one server over a result store.
// Nothing but the planned abandons may fail, and no abandon may leak into a
// cached or stored result: afterwards every request's body, re-asked of the
// loaded server, must equal the body a fresh server with no store returns.
func TestMixedLoadWithCancellations(t *testing.T) {
	const (
		workers  = 8
		requests = 40
	)
	plan := planMixedLoad(requests, 2)
	planned := 0
	for _, rq := range plan {
		if rq.abandon {
			planned++
		}
	}
	if planned < 2 || planned > requests/5 {
		t.Fatalf("plan abandons %d of %d requests; want about a tenth", planned, requests)
	}

	store, err := resultstore.Open(t.TempDir(), resultstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Store = store
	srv := New(cfg)
	// An abandoned request carries its plan index; the client cancels it as
	// soon as the server has it, so the server sees the disconnect while it
	// resolves, simulates or streams.
	var cancels sync.Map // plan index → context.CancelFunc
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get("X-Abandon"); v != "" {
			i, _ := strconv.Atoi(v)
			if cancel, ok := cancels.Load(i); ok {
				cancel.(context.CancelFunc)()
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var canceled atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				rq := plan[i]
				ctx, cancel := context.WithCancel(context.Background())
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+rq.path, strings.NewReader(rq.body))
				if err != nil {
					t.Error(err)
					cancel()
					return
				}
				if rq.abandon {
					cancels.Store(i, cancel)
					req.Header.Set("X-Abandon", strconv.Itoa(i))
				}
				resp, err := ts.Client().Do(req)
				var body []byte
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				abandoned := ctx.Err() != nil
				cancel()
				switch {
				case abandoned && err != nil:
					canceled.Add(1)
				case err != nil:
					t.Errorf("request %d %s %s: %v", i, rq.path, rq.body, err)
				case resp.StatusCode != http.StatusOK:
					t.Errorf("request %d %s %s: status %d, body %s", i, rq.path, rq.body, resp.StatusCode, body)
				case rq.path == "/v1/sweeps" && !sweepDone(body):
					t.Errorf("request %d sweep %s did not finish:\n%s", i, rq.body, body)
				}
			}
		}()
	}
	wg.Wait()
	if canceled.Load() == 0 {
		t.Errorf("none of the %d planned abandons was canceled; the load exercised no disconnect", planned)
	}

	// An abandoned request's handler may still be winding down after its
	// client gave up; wait for every handler and compute to finish.
	waitIdle(t, srv)

	// Every distinct request, abandoned ones included, must now be answered
	// from the loaded server's cache and store exactly as a fresh server
	// without a store computes it.
	fresh := httptest.NewServer(New(testConfig()).Handler())
	defer fresh.Close()
	seen := map[string]bool{}
	for _, rq := range plan {
		if seen[rq.path+rq.body] {
			continue
		}
		seen[rq.path+rq.body] = true
		post := func(ts *httptest.Server) []byte {
			resp, err := http.Post(ts.URL+rq.path, "application/json", strings.NewReader(rq.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d, body %s", rq.path, rq.body, resp.StatusCode, data)
			}
			return data
		}
		if got, want := post(ts), post(fresh); !bytes.Equal(got, want) {
			t.Errorf("%s %s after the load differs from a fresh server's:\n%s\nvs\n%s", rq.path, rq.body, got, want)
		}
	}
}
