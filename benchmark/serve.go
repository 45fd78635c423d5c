package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bpredpower/internal/resultstore"
	"bpredpower/internal/service"
)

// clients is the closed loop's client and connection count, and the figure
// suite's worker count. The benchmark host has two CPUs, and bpserved's
// defaults give it two simulation workers and a gate of two.
const clients = 2

// server is one service.Server on a loopback listener in this process.
type server struct {
	srv    *service.Server
	store  *resultstore.Store // nil without a store directory
	base   string
	hs     *http.Server
	served chan error
}

// startServer builds a server the way bpserved does from cfg, with its
// result store in storeDir when that is set. In a traced run the handler and
// the run cache's hooks report spans to tr, and capture sits in front of the
// result store.
func startServer(cfg service.Config, storeDir string, tr *tracer, capture *captureStore) (*server, error) {
	s := &server{served: make(chan error, 1)}
	if storeDir != "" {
		st, err := resultstore.Open(storeDir, resultstore.Config{})
		if err != nil {
			return nil, err
		}
		cfg.Store, s.store = st, st
	}
	// bpserved logs JSON to stderr; keep the encoding cost, drop the bytes.
	cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	s.srv = service.New(cfg)
	h := s.srv.Handler()
	if tr != nil {
		s.srv.Cache.Hooks = tr.hooks(s.srv.Cache.Hooks)
		h = tr.handler(h)
	}
	if capture != nil {
		capture.inner = s.srv.Cache.Store
		s.srv.Cache.Store = capture
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: h}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the server down and waits for its serve loop to return.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// simulations is how many simulations the server's run cache has computed:
// memory misses the persistent store did not answer.
func (s *server) simulations() uint64 {
	st := s.srv.Cache.Stats()
	return st.Misses - st.StoreHits
}

// newClient is the closed loop's client: at most `clients` keep-alive
// connections to the server.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// post sends body and returns the response body, or an error for a transport
// failure or any status but 200.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// goldenBody is verify.sh's simulate request; its response must equal
// cmd/bpserved/testdata/simulate.golden byte for byte.
const goldenBody = `{"predictor":"Hybrid_1","workload":"164.gzip","fidelity":"quick","warmup_insts":4000,"measure_insts":8000}`

func checkGolden(c *http.Client, base string, want []byte) error {
	got, err := post(c, base+"/v1/simulate", []byte(goldenBody))
	if err != nil {
		return fmt.Errorf("golden simulate: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("golden simulate: response differs from %s", filepath.Join("cmd", "bpserved", "testdata", "simulate.golden"))
	}
	return nil
}

// loopResult is what one closed loop measured.
type loopResult struct {
	latency   []float64 // milliseconds, successful operations only
	attempted int
	failed    int
	errs      []string // the first few failures
	elapsed   time.Duration
}

// maxErrs bounds the failure messages a run keeps.
const maxErrs = 5

// closedLoop runs `users` clients, each issuing op(i) for the next unclaimed
// index as soon as its previous operation returns, until n operations have
// been claimed (n < 0: no limit) or the deadline, unless it is zero, passes.
// An operation in flight at the deadline completes and counts.
func closedLoop(users, n int, deadline time.Time, op func(i int) error) loopResult {
	var next atomic.Int64
	results := make([]loopResult, users)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range results {
		wg.Add(1)
		go func(r *loopResult) {
			defer wg.Done()
			for deadline.IsZero() || time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if n >= 0 && i >= n {
					return
				}
				t0 := time.Now()
				err := op(i)
				d := time.Since(t0)
				r.attempted++
				if err != nil {
					r.failed++
					if len(r.errs) < maxErrs {
						r.errs = append(r.errs, fmt.Sprintf("operation %d: %v", i, err))
					}
					continue
				}
				r.latency = append(r.latency, float64(d.Nanoseconds())/1e6)
			}
		}(&results[c])
	}
	wg.Wait()
	out := loopResult{elapsed: time.Since(start)}
	for _, r := range results {
		out.latency = append(out.latency, r.latency...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.errs = append(out.errs, r.errs...)
	}
	return out
}
