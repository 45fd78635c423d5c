package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/power"
)

// Grid bounds: a sweep is one request, not a denial-of-service vector. The
// caps are enforced structurally by decodeSweepRequest (predictor/axis
// counts) and by the handler after workload resolution (total points).
const (
	maxSweepPredictors = 32
	maxSweepPoints     = 512
)

// SweepRequest is the body of POST /v1/sweeps: a parameter grid
// predictors × banked × clock-gating × benchmarks, simulated at one
// fidelity. The grid order is fixed — predictor-major, then banked, then
// gating style, then benchmark — and the
// response streams one NDJSON line per grid point in exactly that order,
// followed by a summary line, so response bodies are byte-identical at any
// worker count, replica count, or store state.
type SweepRequest struct {
	// Predictors names registered configurations (GET /v1/predictors).
	Predictors []string `json:"predictors"`
	// Workload is a benchmark or suite name, as in SimulateRequest.
	Workload string `json:"workload"`
	// Banked lists the banking axis values (default {false}).
	Banked []bool `json:"banked,omitempty"`
	// ClockGating lists conditional-clocking style names ("cc0".."cc3",
	// default {"cc3"}, the paper's configuration). Styles are a pricing
	// axis: points differing only here are repriced from one simulation's
	// cached activity vector, not re-simulated.
	ClockGating []string `json:"clock_gating,omitempty"`
	// Fidelity/window overrides match SimulateRequest.
	Fidelity     string `json:"fidelity,omitempty"`
	WarmupInsts  uint64 `json:"warmup_insts,omitempty"`
	MeasureInsts uint64 `json:"measure_insts,omitempty"`
	// TimeoutMS tightens (never loosens) the server's request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// sweepWire is the decode shape: the numeric fields come in as float64 so
// degenerate values (negative, fractional, astronomically large) are
// rejected with a precise error instead of a json.Unmarshal type error or,
// worse, a silent truncation.
type sweepWire struct {
	Predictors   []string `json:"predictors"`
	Workload     string   `json:"workload"`
	Banked       []bool   `json:"banked"`
	ClockGating  []string `json:"clock_gating"`
	Fidelity     string   `json:"fidelity"`
	WarmupInsts  float64  `json:"warmup_insts"`
	MeasureInsts float64  `json:"measure_insts"`
	TimeoutMS    float64  `json:"timeout_ms"`
}

// wireCount validates one numeric field: a finite non-negative integer no
// larger than limit.
func wireCount(name string, v, limit float64) (uint64, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("%s must be a non-negative finite number", name)
	}
	if v != math.Trunc(v) {
		return 0, fmt.Errorf("%s must be an integer", name)
	}
	if v > limit {
		return 0, fmt.Errorf("%s exceeds the cap of %d", name, uint64(limit))
	}
	return uint64(v), nil
}

// decodeSweepRequest parses and structurally validates a sweep body. It
// checks everything that does not need the registries: axis sizes and
// duplicates, window and timeout sanity. Name resolution (and the total
// grid-point cap, which needs the workload's benchmark count) stays with
// the handler so its errors can list valid names.
func decodeSweepRequest(data []byte) (SweepRequest, error) {
	var w sweepWire
	var req SweepRequest
	if err := json.Unmarshal(data, &w); err != nil {
		return req, fmt.Errorf("decoding request: %w", err)
	}
	if len(w.Predictors) == 0 {
		return req, errors.New("predictors must name at least one configuration")
	}
	if len(w.Predictors) > maxSweepPredictors {
		return req, fmt.Errorf("%d predictors exceeds the cap of %d", len(w.Predictors), maxSweepPredictors)
	}
	seen := make(map[string]bool, len(w.Predictors))
	for _, p := range w.Predictors {
		if p == "" {
			return req, errors.New("predictor names must be non-empty")
		}
		if seen[p] {
			return req, fmt.Errorf("duplicate predictor %q makes the grid degenerate", p)
		}
		seen[p] = true
	}
	if w.Workload == "" {
		return req, errors.New("workload is required")
	}
	if len(w.Banked) > 2 || (len(w.Banked) == 2 && w.Banked[0] == w.Banked[1]) {
		return req, errors.New("banked axis must list distinct values (at most [false, true])")
	}
	gatingSeen := make(map[string]bool, len(w.ClockGating))
	for _, name := range w.ClockGating {
		if _, err := power.ParseGatingStyle(name); err != nil {
			return req, fmt.Errorf("clock_gating: %v", err)
		}
		if gatingSeen[name] {
			return req, fmt.Errorf("duplicate clock-gating style %q makes the grid degenerate", name)
		}
		gatingSeen[name] = true
	}
	warmup, err := wireCount("warmup_insts", w.WarmupInsts, maxWindowInsts)
	if err != nil {
		return req, err
	}
	measure, err := wireCount("measure_insts", w.MeasureInsts, maxWindowInsts)
	if err != nil {
		return req, err
	}
	// One day is beyond any deadline the server would grant anyway.
	timeout, err := wireCount("timeout_ms", w.TimeoutMS, 24*60*60*1000)
	if err != nil {
		return req, err
	}
	banked := w.Banked
	if len(banked) == 0 {
		banked = []bool{false}
	}
	styles := w.ClockGating
	if len(styles) == 0 {
		styles = []string{power.CC3.String()}
	}
	return SweepRequest{
		Predictors:   w.Predictors,
		Workload:     w.Workload,
		Banked:       banked,
		ClockGating:  styles,
		Fidelity:     w.Fidelity,
		WarmupInsts:  warmup,
		MeasureInsts: measure,
		TimeoutMS:    int64(timeout),
	}, nil
}

// sweepHeader is the first NDJSON line of a sweep stream. ID is
// content-addressed from the resolved grid, so it — like every other byte
// of the body — is identical across servers, replicas, and retries.
type sweepHeader struct {
	ID           string   `json:"id"`
	Points       int      `json:"points"`
	Workload     string   `json:"workload"`
	Fidelity     string   `json:"fidelity"`
	WarmupInsts  uint64   `json:"warmup_insts"`
	MeasureInsts uint64   `json:"measure_insts"`
	Predictors   []string `json:"predictors"`
	Banked       []bool   `json:"banked"`
	ClockGating  []string `json:"clock_gating"`
}

// SweepPoint is one per-point NDJSON line: the grid coordinates plus the
// simulated result.
type SweepPoint struct {
	Point       int    `json:"point"`
	Predictor   string `json:"predictor"`
	Banked      bool   `json:"banked"`
	ClockGating string `json:"clock_gating"`
	RunResult
}

// sweepSummary is the success trailer.
type sweepSummary struct {
	Done   bool      `json:"done"`
	Points int       `json:"points"`
	Mean   RunResult `json:"mean"`
}

// sweepFailure is the trailer of a canceled or deadline-exceeded sweep:
// every line before it is a completed, valid grid point.
type sweepFailure struct {
	Error     string `json:"error"`
	Completed int    `json:"completed"`
}

// sweepID derives the sweep id from the resolved grid and run configuration.
// Identical grids — whatever the axis spellings that produced them — map to
// the same id.
func sweepID(hdr sweepHeader, rc experiments.RunConfig) string {
	canon, _ := json.Marshal(struct {
		Schema int
		Header sweepHeader
		RC     experiments.RunConfig
	}{1, hdr, rc})
	sum := sha256.Sum256(canon)
	return "sw-" + hex.EncodeToString(sum[:8])
}

// ndjsonLine marshals v as one stream line.
func ndjsonLine(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		// Line payloads are plain structs of strings and numbers; a marshal
		// failure is a programming error.
		panic("service: marshaling sweep line: " + err.Error())
	}
	return append(data, '\n')
}

// handleSweeps is POST /v1/sweeps: validate, resolve, and stream the grid
// under the request's own context, whose deadline timeout_ms may tighten.
// The response is NDJSON: header line, one line per grid point in grid
// order, then a summary (or failure) trailer. The status is always 200 once
// the grid is valid: a failure surfaces as the in-band trailer, since points
// may already be on the wire when it happens.
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	req, err := decodeSweepRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	specs := make([]bpred.Spec, len(req.Predictors))
	for i, name := range req.Predictors {
		if specs[i], err = bpred.ByName(name); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	bs, err := resolveWorkload(req.Workload)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rc, fidelity, err := runConfigFor(req.Fidelity, req.WarmupInsts, req.MeasureInsts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	styles := make([]power.GatingStyle, len(req.ClockGating))
	for i, name := range req.ClockGating {
		// Already validated by decodeSweepRequest; resolve for grid build.
		styles[i], _ = power.ParseGatingStyle(name)
	}
	total := len(specs) * len(req.Banked) * len(styles) * len(bs)
	if total > maxSweepPoints {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("grid has %d points, exceeding the cap of %d", total, maxSweepPoints))
		return
	}

	// The grid, in its canonical order: predictor-major, then banked, then
	// clock-gating style, then benchmark (experiments.Cross is variant-major,
	// matching the figures). The gating axis is pure pricing: its points
	// reprice the shared activity vector rather than re-simulate.
	opts := make([]cpu.Options, 0, len(specs)*len(req.Banked)*len(styles))
	names := make([]string, len(specs))
	for i, spec := range specs {
		names[i] = spec.Name
		for _, b := range req.Banked {
			for _, style := range styles {
				opts = append(opts, cpu.Options{Predictor: spec, BankedPredictor: b, ClockGating: style})
			}
		}
	}
	points := experiments.Cross(bs, opts...)
	hdr := sweepHeader{
		Points:       total,
		Workload:     req.Workload,
		Fidelity:     fidelity,
		WarmupInsts:  rc.WarmupInsts,
		MeasureInsts: rc.MeasureInsts,
		Predictors:   names,
		Banked:       req.Banked,
		ClockGating:  req.ClockGating,
	}
	hdr.ID = sweepID(hdr, rc)

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-ID", hdr.ID)
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(ndjsonLine(hdr)); err != nil {
		return
	}
	s.runSweep(ctx, w, rc, points)
}

// runSweep fans the grid out across the worker pool and writes per-point
// lines in grid order as their results become final. Every point resolves
// through the shared RunCache, so singleflight, the concurrency gate, and
// the persistent store all apply, and identical or overlapping concurrent
// sweeps share their simulations. The emit loop waits on point i before
// looking at i+1: later points may finish earlier, but their lines are
// withheld until their turn, which makes the body byte-identical at any
// worker count while still streaming incrementally. Lines already final go
// out in one batch; the stream is flushed only before the loop blocks. It
// returns after the pool has joined, and returning early (a failed point, a
// dead client) cancels the points not yet claimed. rc is the run
// configuration whose windows the header advertises.
func (s *Server) runSweep(ctx context.Context, w http.ResponseWriter, rc experiments.RunConfig, points []experiments.Job) {
	n := len(points)
	results := make([]experiments.Run, n)
	errs := make([]error, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		experiments.ForEachCtx(ctx, s.cfg.Parallel, n, func(i int) {
			results[i], errs[i] = s.Cache.Resolve(ctx, points[i].Bench, points[i].Opt, rc)
			close(ready[i])
		})
	}()

	ctl := http.NewResponseController(w)
	fail := func(err error, completed int) {
		w.Write(ndjsonLine(sweepFailure{Error: sweepErrorText(err), Completed: completed}))
	}
	for i := 0; i < n; i++ {
		select {
		case <-ready[i]:
		default:
			ctl.Flush()
			select {
			case <-ready[i]:
			case <-ctx.Done():
				fail(ctx.Err(), i)
				return
			}
		}
		if errs[i] != nil {
			fail(errs[i], i)
			return
		}
		line := ndjsonLine(SweepPoint{
			Point:       i,
			Predictor:   points[i].Opt.Predictor.Name,
			Banked:      points[i].Opt.BankedPredictor,
			ClockGating: points[i].Opt.ClockGating.String(),
			RunResult:   toRunResult(results[i]),
		})
		if _, err := w.Write(line); err != nil {
			return
		}
	}
	rrs := make([]RunResult, n)
	for i, r := range results {
		rrs[i] = toRunResult(r)
	}
	w.Write(ndjsonLine(sweepSummary{Done: true, Points: n, Mean: meanResult(rrs)}))
}

// sweepErrorText maps a sweep error to its stable in-stream message.
func sweepErrorText(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "sweep deadline exceeded"
	case errors.Is(err, context.Canceled):
		return "sweep canceled"
	default:
		return err.Error()
	}
}
